package transport

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport/multipath"
)

// chain builds a 1-...-n chain with static routing.
func chain(n int) (*netsim.Network, *sim.Scheduler) {
	sched := sim.NewScheduler()
	g := topology.Linear(n, sim.Millisecond)
	net := netsim.New(sched, g)
	for id := topology.NodeID(1); id <= topology.NodeID(n); id++ {
		id := id
		net.Node(id).Route = func(dst packet.Addr, tip *packet.TIP) (topology.NodeID, bool) {
			d := topology.NodeID(dst.Provider())
			switch {
			case d > id:
				return id + 1, true
			case d < id:
				return id - 1, true
			}
			return id, true
		}
	}
	return net, sched
}

func payload(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i * 31)
	}
	return out
}

// e2eConfig is the end-to-end configuration E21 runs: the defaults with
// an eight-segment window.
func e2eConfig() multipath.Config {
	cfg := multipath.DefaultConfig()
	cfg.Window = 8
	return cfg
}

// transfer runs one end-to-end transfer over the chain's own routing
// and returns the stream the receiver reassembled.
func transfer(net *netsim.Network, from, to topology.NodeID, data []byte) (multipath.Stats, []byte) {
	var got bytes.Buffer
	stats, _ := multipath.Transfer(net, multipath.Routed{}, from, to, 9000, data, e2eConfig(), &got)
	return stats, got.Bytes()
}

// partitioned prepares a transfer of size bytes from node 1 to node 4
// of a chain whose middle link is down for good, with three retries.
func partitioned(size int) (*multipath.Sender, *sim.Scheduler) {
	net, sched := chain(4)
	net.FailLink(2, 3)
	cfg := e2eConfig()
	cfg.MaxRetries = 3
	multipath.InstallReceiver(net, 4, 9000)
	return multipath.NewSender(net, multipath.Routed{}, 1, 4, 9000, payload(size), cfg), sched
}

func TestTransferCleanNetwork(t *testing.T) {
	net, _ := chain(4)
	data := payload(5000)
	stats, got := transfer(net, 1, 4, data)
	if !stats.Done {
		t.Fatalf("transfer incomplete: %+v", stats)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("data corrupted: got %d bytes", len(got))
	}
	if stats.Retransmissions != 0 {
		t.Fatalf("clean network retransmitted %d", stats.Retransmissions)
	}
	if stats.Segments != 10 || stats.PathsUsed != 1 {
		t.Fatalf("segments = %d on %d paths, want 10 on one", stats.Segments, stats.PathsUsed)
	}
}

func TestTransferSingleSegment(t *testing.T) {
	net, _ := chain(2)
	data := []byte("tiny")
	stats, got := transfer(net, 1, 2, data)
	if !stats.Done || stats.Segments != 1 || !bytes.Equal(got, data) {
		t.Fatalf("tiny transfer failed: %+v", stats)
	}
}

func TestTransferEmptyPayload(t *testing.T) {
	net, _ := chain(2)
	stats, got := transfer(net, 1, 2, nil)
	if !stats.Done || stats.Segments != 0 || len(got) != 0 {
		t.Fatalf("empty transfer: %+v", stats)
	}
}

// TestTransferGivesUpOnPartition: across a permanent partition the
// sender surfaces a terminal failure with its reason and duration —
// the degrade signal an application can act on instead of a silent
// stall.
func TestTransferGivesUpOnPartition(t *testing.T) {
	s, sched := partitioned(1000)
	s.Start()
	sched.Run()
	st := s.Stats()
	if !st.Failed || st.Done {
		t.Fatalf("sender should give up on a partitioned path: %+v", st)
	}
	if !strings.HasPrefix(st.FailReason, "segment ") || !strings.HasSuffix(st.FailReason, " unacknowledged after 3 retransmissions") {
		t.Fatalf("FailReason = %q: the degrade signal must say which segment ran out of retries", st.FailReason)
	}
	if st.Elapsed == 0 {
		t.Fatal("failed transfer should still report how long it tried")
	}
}

// TestNoPendingTimersAfterGiveUp pins the give-up cleanup contract: a
// transfer that gives up with a full window in flight cancels every
// outstanding retransmission timer, so an abandoned transfer stops
// occupying scheduler slots. Run drains the queue either way; the clock
// stopping at the give-up shows that no other segment's timer fired
// after it.
func TestNoPendingTimersAfterGiveUp(t *testing.T) {
	s, sched := partitioned(8000)
	s.Start()
	sched.Run()
	st := s.Stats()
	if !st.Failed {
		t.Fatal("sender should give up on a partitioned path")
	}
	if sched.Now() != st.Elapsed {
		t.Fatalf("timers kept firing until %v after the give-up at %v", sched.Now(), st.Elapsed)
	}
	if p := sched.Pending(); p != 0 {
		t.Fatalf("%d timers still pending after give-up", p)
	}
}

// TestNoPendingTimersAfterCompletion is the happy-path counterpart:
// completion cancels everything too.
func TestNoPendingTimersAfterCompletion(t *testing.T) {
	net, sched := chain(4)
	st, _ := transfer(net, 1, 4, payload(8000))
	if !st.Done {
		t.Fatalf("transfer failed: %+v", st)
	}
	if p := sched.Pending(); p != 0 {
		t.Fatalf("%d timers still pending after completion", p)
	}
}

func TestLinkARQRepairsLocally(t *testing.T) {
	// Same loss process; ARQ repairs most losses before the end-to-end
	// layer notices.
	runWith := func(arq bool) (multipath.Stats, int) {
		net, _ := chain(4)
		rng := sim.NewRNG(11)
		local := 0
		if arq {
			InstallLinkARQ(net, 2, 0.3, 5, rng, &local)
			InstallLinkARQ(net, 3, 0.3, 5, rng, &local)
		} else {
			InstallLossyLink(net, 2, 0.3, rng)
			InstallLossyLink(net, 3, 0.3, rng)
		}
		stats, _ := transfer(net, 1, 4, payload(8000))
		return stats, local
	}
	e2eOnly, _ := runWith(false)
	withARQ, localResends := runWith(true)
	if !e2eOnly.Done || !withARQ.Done {
		t.Fatal("both configurations must complete")
	}
	if withARQ.Retransmissions >= e2eOnly.Retransmissions {
		t.Fatalf("link ARQ should cut end-to-end retransmissions: %d vs %d",
			withARQ.Retransmissions, e2eOnly.Retransmissions)
	}
	if localResends == 0 {
		t.Fatal("ARQ did no local repairs")
	}
}
