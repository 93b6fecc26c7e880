package multipath

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topology"
)

// mpNet builds the canonical multipath test network on mpGraph. Every
// node honors source routes; there is no dynamic routing — path choice
// is entirely the sender's.
func mpNet() (*sim.Scheduler, *netsim.Network) {
	sched := sim.NewScheduler()
	net := netsim.New(sched, mpGraph())
	for _, id := range []topology.NodeID{1, 2, 3, 8, 9} {
		net.Node(id).HonorSourceRoutes = true
	}
	return sched, net
}

// mpGraph is sender stub 8 and receiver stub 9 each homed on three
// peered transits 1/2/3, yielding exactly three link-disjoint 3-node
// paths (8-1-9 cheapest, then 8-2-9, then 8-3-9).
func mpGraph() *topology.Graph {
	g := topology.NewGraph()
	for i := 1; i <= 3; i++ {
		g.AddNode(topology.NodeID(i), topology.Transit, 1)
	}
	g.AddNode(8, topology.Stub, 2)
	g.AddNode(9, topology.Stub, 2)
	g.AddLink(1, 2, topology.PeerOf, sim.Millisecond, 1)
	g.AddLink(2, 3, topology.PeerOf, sim.Millisecond, 1)
	for i := 1; i <= 3; i++ {
		g.AddLink(8, topology.NodeID(i), topology.CustomerOf, sim.Millisecond, 1)
		g.AddLink(9, topology.NodeID(i), topology.CustomerOf, sim.Time(i)*sim.Millisecond, 1)
	}
	return g
}

func mpPayload(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*7 + i/251)
	}
	return data
}

func mpConfig(seed uint64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.RTO = 20 * sim.Millisecond
	cfg.MaxRTO = 200 * sim.Millisecond
	cfg.ProbeEvery = 40 * sim.Millisecond
	return cfg
}

func TestTransferCleanAllStrategies(t *testing.T) {
	data := mpPayload(8 << 10)
	for _, strat := range Strategies() {
		sched, net := mpNet()
		var got bytes.Buffer
		st, _ := Transfer(net, strat, 8, 9, 7000, data, mpConfig(42), &got)
		if !st.Done || st.Failed {
			t.Fatalf("%s: transfer did not complete: %+v", strat.Name(), st)
		}
		if !bytes.Equal(got.Bytes(), data) {
			t.Fatalf("%s: delivered %d bytes, want %d (or corrupted)", strat.Name(), got.Len(), len(data))
		}
		if p := sched.Pending(); p != 0 {
			t.Fatalf("%s: %d timers still pending after completion", strat.Name(), p)
		}
		if st.PathsUsed < 2 {
			t.Fatalf("%s: expected multiple paths, used %d", strat.Name(), st.PathsUsed)
		}
	}
}

// TestStripingUsesAllPaths checks that a clean round-robin transfer
// actually interleaves: every discovered path carries accepted segments.
func TestStripingUsesAllPaths(t *testing.T) {
	sched, net := mpNet()
	_ = sched
	st, rcv := Transfer(net, &DisjointnessMax{}, 8, 9, 7000, mpPayload(16<<10), mpConfig(42), nil)
	if !st.Done {
		t.Fatalf("transfer failed: %+v", st)
	}
	if len(rcv.PathSegments) < 3 {
		t.Fatalf("expected segments on 3 paths, got distribution %v", rcv.PathSegments)
	}
}

// TestSurvivesLinkFailure kills the cheapest path's access link
// mid-transfer; the stream must finish on the survivors, with the dead
// path demoted along the way.
func TestSurvivesLinkFailure(t *testing.T) {
	for _, strat := range Strategies() {
		sched, net := mpNet()
		var got bytes.Buffer
		InstallReceiver(net, 9, 7000).Out = &got
		data := mpPayload(96 << 10)
		s := NewSender(net, strat, 8, 9, 7000, data, mpConfig(42))
		sched.After(8*sim.Millisecond, func() { net.FailLink(9, 1) })
		s.Start()
		sched.Run()
		st := s.Stats()
		if !st.Done || st.Failed {
			t.Fatalf("%s: transfer died with a failed link: %+v", strat.Name(), st)
		}
		if !bytes.Equal(got.Bytes(), data) {
			t.Fatalf("%s: stream corrupted under link failure", strat.Name())
		}
		if st.Demotions == 0 {
			t.Fatalf("%s: dead path was never demoted: %+v", strat.Name(), st)
		}
		if p := sched.Pending(); p != 0 {
			t.Fatalf("%s: %d timers pending after completion", strat.Name(), p)
		}
	}
}

// TestSurvivesNodeCrashPartition crashes transit 2 mid-transfer — a
// partition of one whole path — and requires completion on the
// survivors with zero duplicate delivery (exact stream equality).
func TestSurvivesNodeCrashPartition(t *testing.T) {
	sched, net := mpNet()
	var got bytes.Buffer
	InstallReceiver(net, 9, 7000).Out = &got
	data := mpPayload(96 << 10)
	s := NewSender(net, &DisjointnessMax{}, 8, 9, 7000, data, mpConfig(7))
	sched.After(8*sim.Millisecond, func() { net.FailNode(2) })
	s.Start()
	sched.Run()
	if st := s.Stats(); !st.Done || st.Failed {
		t.Fatalf("partition killed the transfer: %+v", st)
	}
	if !bytes.Equal(got.Bytes(), data) {
		t.Fatalf("delivered stream != sent stream (len %d vs %d)", got.Len(), len(data))
	}
	if p := sched.Pending(); p != 0 {
		t.Fatalf("%d timers pending after completion", p)
	}
}

// TestPromotionAfterRecovery flaps a path's access link: demotion must
// be followed by probe-driven promotion once the link heals, and the
// revived path must carry traffic again.
func TestPromotionAfterRecovery(t *testing.T) {
	sched, net := mpNet()
	InstallReceiver(net, 9, 7000)
	cfg := mpConfig(42)
	cfg.MaxProbes = 100 // don't declare dead during the outage
	s := NewSender(net, &DisjointnessMax{}, 8, 9, 7000, mpPayload(192<<10), cfg)
	var log []string
	s.SetTrace(func(line string) { log = append(log, line) })
	sched.After(10*sim.Millisecond, func() { net.FailLink(9, 1) })
	sched.After(250*sim.Millisecond, func() { net.RestoreLink(9, 1) })
	s.Start()
	sched.Run()
	st := s.Stats()
	if !st.Done {
		t.Fatalf("transfer failed: %+v", st)
	}
	if st.Demotions == 0 || st.Promotions == 0 {
		t.Fatalf("expected a demote/promote cycle, got %d/%d", st.Demotions, st.Promotions)
	}
	var revived *Path
	for _, p := range s.Paths() {
		if p.Promotions > 0 {
			q := p
			revived = &q
		}
	}
	if revived == nil {
		t.Fatal("no path records a promotion")
	}
	// The decision log shows the revived path demoted, then promoted.
	demote := fmt.Sprintf(" demote path=%d", revived.Index)
	promote := fmt.Sprintf(" promote path=%d", revived.Index)
	demoted := false
	for _, line := range log {
		if strings.HasSuffix(line, demote) {
			demoted = true
		} else if demoted && strings.HasSuffix(line, promote) {
			return
		}
	}
	t.Fatalf("no%s after a%s in the decision log", promote, demote)
}

// TestAllPathsDeadFails severs the receiver entirely: the sender must
// reach a terminal failure (not hang) and leave no scheduler debris.
func TestAllPathsDeadFails(t *testing.T) {
	sched, net := mpNet()
	InstallReceiver(net, 9, 7000)
	cfg := mpConfig(42)
	cfg.MaxProbes = 3
	cfg.MaxRetries = 6
	s := NewSender(net, &DisjointnessMax{}, 8, 9, 7000, mpPayload(64<<10), cfg)
	sched.After(3*sim.Millisecond, func() {
		for i := 1; i <= 3; i++ {
			net.FailLink(9, topology.NodeID(i))
		}
	})
	s.Start()
	sched.Run()
	st := s.Stats()
	if st.Done || !st.Failed {
		t.Fatalf("expected terminal failure, got %+v", st)
	}
	if p := sched.Pending(); p != 0 {
		t.Fatalf("%d timers pending after give-up", p)
	}
}

// TestNoPathsFailsImmediately covers the degenerate sender: isolated
// endpoints have no candidates and must fail at Start.
func TestNoPathsFailsImmediately(t *testing.T) {
	g := topology.NewGraph()
	g.AddNode(1, topology.Stub, 1)
	g.AddNode(2, topology.Stub, 1)
	sched := sim.NewScheduler()
	net := netsim.New(sched, g)
	s := NewSender(net, &ShortestK{}, 1, 2, 7000, mpPayload(100), mpConfig(1))
	s.Start()
	sched.Run()
	if st := s.Stats(); !st.Failed || st.FailReason != "no paths discovered" {
		t.Fatalf("expected immediate no-path failure, got %+v", st)
	}
}

// TestDeterministicReplay pins the byte-identical replay contract: the
// same seed, strategy, and fault schedule reproduce identical stats,
// path states, and per-path delivery distributions.
func TestDeterministicReplay(t *testing.T) {
	run := func(seed uint64, strat Strategy) (Stats, []Path, map[int]int) {
		sched, net := mpNet()
		r := InstallReceiver(net, 9, 7000)
		s := NewSender(net, strat, 8, 9, 7000, mpPayload(48<<10), mpConfig(seed))
		sched.After(8*sim.Millisecond, func() { net.FailLink(9, 1) })
		sched.After(200*sim.Millisecond, func() { net.RestoreLink(9, 1) })
		s.Start()
		sched.Run()
		return s.Stats(), s.Paths(), r.PathSegments
	}
	for _, seed := range []uint64{1, 7, 42} {
		for _, mk := range []func() Strategy{
			func() Strategy { return &ShortestK{} },
			func() Strategy { return &DisjointnessMax{} },
			func() Strategy { return &LatencyWeighted{} },
			func() Strategy { return &LossAdaptive{} },
		} {
			st1, p1, d1 := run(seed, mk())
			st2, p2, d2 := run(seed, mk())
			if !reflect.DeepEqual(st1, st2) {
				t.Fatalf("seed %d %s: stats diverged:\n%+v\n%+v", seed, mk().Name(), st1, st2)
			}
			if !reflect.DeepEqual(p1, p2) {
				t.Fatalf("seed %d %s: path state diverged", seed, mk().Name())
			}
			if !reflect.DeepEqual(d1, d2) {
				t.Fatalf("seed %d %s: delivery distribution diverged", seed, mk().Name())
			}
		}
	}
}

// TestObsCounters checks the registry wiring and that the unattached
// default stays functional (nil-safe fast paths).
func TestObsCounters(t *testing.T) {
	sched, net := mpNet()
	InstallReceiver(net, 9, 7000)
	reg := obs.NewRegistry()
	s := NewSender(net, &DisjointnessMax{}, 8, 9, 7000, mpPayload(8<<10), mpConfig(42))
	s.AttachObs(reg)
	s.Start()
	sched.Run()
	if !s.Done() {
		t.Fatalf("transfer failed: %+v", s.Stats())
	}
	snap := reg.Snapshot()
	want := int64(s.Stats().Sent)
	var got int64
	for _, c := range snap.Counters {
		if c.Name == "multipath.sent" {
			got = c.Value
		}
	}
	if got != want {
		t.Fatalf("multipath.sent = %d, stats say %d", got, want)
	}
	var perPath int64
	for _, c := range snap.Counters {
		switch c.Name {
		case "multipath.path0.sent", "multipath.path1.sent", "multipath.path2.sent":
			perPath += c.Value
		}
	}
	if perPath != want {
		t.Fatalf("per-path sent sums to %d, want %d", perPath, want)
	}
}

func TestStrategyByName(t *testing.T) {
	for _, s := range Strategies() {
		got, err := StrategyByName(s.Name())
		if err != nil || got.Name() != s.Name() {
			t.Fatalf("round-trip failed for %q: %v", s.Name(), err)
		}
	}
	if _, err := StrategyByName("teleport"); err == nil {
		t.Fatal("unknown strategy did not error")
	}
}

func TestFairness(t *testing.T) {
	even := []Path{{AckedBytes: 100}, {AckedBytes: 100}}
	if f := Fairness(even); f < 0.999 {
		t.Fatalf("even split fairness %v, want ~1", f)
	}
	skew := []Path{{AckedBytes: 200}, {AckedBytes: 0}}
	if f := Fairness(skew); f > 0.51 {
		t.Fatalf("total skew fairness %v, want ~0.5", f)
	}
	if Fairness(nil) != 0 {
		t.Fatal("empty fairness should be 0")
	}
}
