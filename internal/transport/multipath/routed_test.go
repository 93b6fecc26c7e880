package multipath

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

// The single-path sender: Routed over a chain whose nodes forward by
// destination, so segments and ACKs follow the network's own routing.

// chainNet builds a 1-...-n chain with static routing.
func chainNet(n int) (*sim.Scheduler, *netsim.Network) {
	sched := sim.NewScheduler()
	net := netsim.New(sched, topology.Linear(n, sim.Millisecond))
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
	return sched, net
}

// routedConfig is the end-to-end configuration E21 runs: the defaults
// with an eight-segment window.
func routedConfig() Config {
	cfg := DefaultConfig()
	cfg.Window = 8
	return cfg
}

// routedSender installs a receiver at dst, streaming into the returned
// buffer, and prepares a Routed sender from src on the same port.
func routedSender(net *netsim.Network, src, dst topology.NodeID, port uint16, data []byte, cfg Config) (*Sender, *bytes.Buffer) {
	got := new(bytes.Buffer)
	InstallReceiver(net, dst, port).Out = got
	return NewSender(net, Routed{}, src, dst, port, data, cfg), got
}

func TestTransferSurvivesLoss(t *testing.T) {
	_, net := chainNet(4)
	transport.InstallLossyLink(net, 2, 0.3, sim.NewRNG(7))
	data := mpPayload(8000)
	var got bytes.Buffer
	st, _ := Transfer(net, Routed{}, 1, 4, 9000, data, routedConfig(), &got)
	if !st.Done {
		t.Fatalf("transfer died under 30%% loss: %+v", st)
	}
	if !bytes.Equal(got.Bytes(), data) {
		t.Fatal("data corrupted under loss")
	}
	if st.Retransmissions == 0 {
		t.Fatal("loss produced no retransmissions?")
	}
}

func TestTransferSurvivesLinkFlap(t *testing.T) {
	sched, net := chainNet(4)
	sched.At(5*sim.Millisecond, func() { net.FailLink(2, 3) })
	sched.At(200*sim.Millisecond, func() { net.RestoreLink(2, 3) })
	data := mpPayload(4000)
	s, got := routedSender(net, 1, 4, 9000, data, routedConfig())
	s.Start()
	sched.Run()
	if !s.Done() {
		t.Fatalf("transfer died across a link flap: %+v", s.Stats())
	}
	if !bytes.Equal(got.Bytes(), data) {
		t.Fatal("data corrupted across flap")
	}
}

// TestOnePathNeverDemotes pins the one-path rule: demotion exists to
// move traffic to another path, so a sender's only path keeps
// retransmitting until MaxRetries instead of going on probation and
// dying of unanswered probes. With a fixed 60ms RTO (no backoff, no
// jitter) and four retries, the fifth timeout gives up at exactly
// 300ms.
func TestOnePathNeverDemotes(t *testing.T) {
	sched, net := chainNet(3)
	net.FailLink(2, 3)
	cfg := Config{Window: 8, SegmentSize: 512, RTO: 60 * sim.Millisecond, MaxRetries: 4}
	s, _ := routedSender(net, 1, 3, 9000, mpPayload(100), cfg)
	s.Start()
	sched.Run()
	st := s.Stats()
	if !st.Failed || st.FailReason != "segment 0 unacknowledged after 4 retransmissions" {
		t.Fatalf("want give-up after 4 retransmissions, got %+v", st)
	}
	if want := 5 * 60 * sim.Millisecond; st.Elapsed != want || sched.Now() != want {
		t.Fatalf("gave up at %v (clock %v), want %v", st.Elapsed, sched.Now(), want)
	}
	if st.Demotions != 0 || st.Probes != 0 {
		t.Fatalf("the only path was demoted or probed: %+v", st)
	}
	if p := sched.Pending(); p != 0 {
		t.Fatalf("%d timers still pending after give-up", p)
	}
}

// TestBackoffSpacingAndDeterminism: on a partitioned path the
// retransmission timers space out exponentially, and two runs at the
// same seed behave identically (same give-up time, same send count).
func TestBackoffSpacingAndDeterminism(t *testing.T) {
	run := func() (Stats, sim.Time) {
		sched, net := chainNet(3)
		net.FailLink(2, 3)
		cfg := routedConfig()
		cfg.MaxRetries = 4
		s, _ := routedSender(net, 1, 3, 9000, mpPayload(100), cfg)
		s.Start()
		sched.Run()
		return s.Stats(), sched.Now()
	}
	a, ta := run()
	b, tb := run()
	if !a.Failed || !b.Failed {
		t.Fatalf("both runs must give up: %+v %+v", a, b)
	}
	if a != b || ta != tb {
		t.Fatalf("same seed must reproduce identically:\n%+v @%v\n%+v @%v", a, ta, b, tb)
	}
	// A fixed RTO would give up after (MaxRetries+1)*RTO = 300ms;
	// doubling backoff needs 60+120+240+480+960 ≈ 1.86s before the final
	// timer fires (jitter stretches it further).
	if ta < 1500*sim.Millisecond {
		t.Fatalf("give-up at %v: retransmission timers did not back off", ta)
	}
}

// TestReceiverReassemblyOutOfOrderDuplicates drives the receiver
// directly with out-of-order and duplicate segments.
func TestReceiverReassemblyOutOfOrderDuplicates(t *testing.T) {
	sched, net := chainNet(2)
	r := InstallReceiver(net, 2, 9000)
	var got bytes.Buffer
	r.Out = &got
	send := func(seq uint32, body string) {
		data, err := packet.Serialize(
			&packet.TIP{TTL: 8, Proto: packet.LayerTypeTTP, Src: packet.MakeAddr(1, 1), Dst: packet.MakeAddr(2, 1)},
			&packet.TTP{SrcPort: 41000, DstPort: 9000, Seq: seq, Window: 1, Next: packet.LayerTypeRaw},
			&packet.Raw{Data: []byte(body)})
		if err != nil {
			t.Fatal(err)
		}
		net.Send(1, data)
		sched.Run()
	}
	send(1, "BBB") // out of order
	if got.Len() != 0 || r.Bytes != 0 {
		t.Fatal("delivered out-of-order data")
	}
	send(0, "AAA")
	if got.String() != "AAABBB" || r.Bytes != 6 {
		t.Fatalf("reassembly = %q (%d bytes counted)", got.String(), r.Bytes)
	}
	send(0, "AAA") // duplicate
	send(1, "BBB") // duplicate
	if got.String() != "AAABBB" || r.Bytes != 6 {
		t.Fatalf("duplicates corrupted stream: %q (%d bytes counted)", got.String(), r.Bytes)
	}
	if r.Dups != 2 || r.Acks != 4 {
		t.Fatalf("dups=%d acks=%d, want 2 duplicates among 4 acknowledged segments", r.Dups, r.Acks)
	}
}

func TestTransferRoundTripQuick(t *testing.T) {
	f := func(seed uint64, sizeRaw uint16) bool {
		_, net := chainNet(3)
		transport.InstallLossyLink(net, 2, 0.15, sim.NewRNG(seed))
		data := mpPayload(int(sizeRaw%4000) + 1)
		var got bytes.Buffer
		st, _ := Transfer(net, Routed{}, 1, 3, 9000, data, routedConfig(), &got)
		return st.Done && bytes.Equal(got.Bytes(), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentTransfersIndependent runs two senders from one node to
// two ports on another. They share a source port, so each must take
// only the ACKs that come from its own destination port.
func TestConcurrentTransfersIndependent(t *testing.T) {
	sched, net := chainNet(4)
	dataA := mpPayload(3000)
	dataB := bytes.Repeat([]byte("z"), 3000)
	sA, rA := routedSender(net, 1, 4, 9000, dataA, routedConfig())
	sB, rB := routedSender(net, 1, 4, 9001, dataB, routedConfig())
	sA.Start()
	sB.Start()
	sched.Run()
	if !sA.Done() || !sB.Done() {
		t.Fatalf("concurrent transfers incomplete: %+v %+v", sA.Stats(), sB.Stats())
	}
	if !bytes.Equal(rA.Bytes(), dataA) || !bytes.Equal(rB.Bytes(), dataB) {
		t.Fatal("streams cross-contaminated")
	}
}

func TestDeclaredContentType(t *testing.T) {
	sched, net := chainNet(2)
	cfg := routedConfig()
	cfg.ContentType = packet.LayerTypeCrypto
	s, got := routedSender(net, 1, 2, 9000, mpPayload(1500), cfg)
	// Observe segments at the receiver by decoding TTP.Next.
	var seen []packet.LayerType
	nd := net.Node(2)
	prev := nd.Deliver
	nd.Deliver = func(n *netsim.Node, tr *netsim.Trace, data []byte) {
		var tip packet.TIP
		if tip.DecodeFrom(data) == nil && tip.Proto == packet.LayerTypeTTP {
			var ttp packet.TTP
			if ttp.DecodeFrom(tip.LayerPayload()) == nil && ttp.Flags&packet.FlagACK == 0 {
				seen = append(seen, ttp.Next)
			}
		}
		prev(n, tr, data)
	}
	s.Start()
	sched.Run()
	if !s.Done() || got.Len() != 1500 {
		t.Fatalf("transfer failed: done=%v got=%d", s.Done(), got.Len())
	}
	if len(seen) == 0 {
		t.Fatal("no segments observed")
	}
	for _, next := range seen {
		if next != packet.LayerTypeCrypto {
			t.Fatalf("segment declared %v, want Crypto", next)
		}
	}
}
