package multipath

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// Edge cases of the demotion / probation / promotion machine that the
// chaos-driven tests only hit probabilistically, pinned here
// deterministically: the fully parked window (every path in probation
// at once), a single surviving path under the loss-adaptive strategy,
// and re-striping after a path is declared dead while owning zero
// in-flight segments.

// TestFullParkThenPromotion drives every path into probation at the
// same time: with no ACKs at all, each path accumulates consecutive
// timeouts and demotes, the window parks (no eligible path), and the
// sender goes quiet except for probes. A single ACK credit must then
// promote one path, un-park the window, and let the scripted remainder
// complete the transfer with no timers left behind.
func TestFullParkThenPromotion(t *testing.T) {
	sched := sim.NewScheduler()
	cfg := DefaultConfig()
	cfg.Seed = 42
	cfg.Window = 4
	cfg.SegmentSize = 64
	cfg.RTO = 10 * sim.Millisecond
	cfg.MaxRTO = 40 * sim.Millisecond
	cfg.MaxRetries = 20
	cfg.DemoteAfter = 2
	cfg.ProbeEvery = 25 * sim.Millisecond
	cfg.MaxProbes = 50
	s := NewDriverSender(
		Driver{Clock: SimClock{sched}, Xmit: func(p *Path, seq uint32) error { return nil }},
		&ShortestK{}, fuzzCands(), 8, 9, 7000, make([]byte, 4*64), cfg)
	var trace []string
	s.SetTrace(func(l string) { trace = append(trace, l) })

	// By 100ms every path has timed out DemoteAfter times; check the
	// full park from inside the run, then revive.
	sched.After(100*sim.Millisecond, func() {
		for _, p := range s.Paths() {
			if p.State != PathProbation {
				t.Errorf("path %d at 100ms: state %v, want probation", p.Index, p.State)
			}
		}
	})
	sched.After(120*sim.Millisecond, func() { s.HandleAck(fuzzAck(0, 2)) }) // credit → promote path 1
	sched.After(140*sim.Millisecond, func() { s.HandleAck(fuzzAck(4, 2)) }) // complete
	s.Start()
	sched.Run()

	if !s.Done() || s.Failed() {
		t.Fatalf("transfer did not complete after promotion: %+v", s.Stats())
	}
	joined := strings.Join(trace, "\n")
	if !strings.Contains(joined, "park seq=") {
		t.Fatal("window never parked despite all paths in probation")
	}
	if got := s.Stats().Demotions; got < 3 {
		t.Fatalf("want all 3 paths demoted, got %d demotions", got)
	}
	if got := s.Stats().Promotions; got < 1 {
		t.Fatalf("promotion never happened (got %d)", got)
	}
	if p := sched.Pending(); p != 0 {
		t.Fatalf("%d timers pending after completion", p)
	}
}

// TestLossAdaptiveSingleSurvivor kills two of the three disjoint paths:
// loss-adaptive must finish the stream on the lone survivor, with the
// dead paths demoted and the survivor's loss estimate clean.
func TestLossAdaptiveSingleSurvivor(t *testing.T) {
	sched, net := mpNet()
	var got bytes.Buffer
	InstallReceiver(net, 9, 7000).Out = &got
	data := mpPayload(32 << 10)
	s := NewSender(net, &LossAdaptive{}, 8, 9, 7000, data, mpConfig(42))
	sched.After(2*sim.Millisecond, func() {
		net.FailLink(9, 1)
		net.FailLink(9, 2)
	})
	s.Start()
	sched.Run()

	st := s.Stats()
	if !st.Done || st.Failed {
		t.Fatalf("transfer died with one surviving path: %+v", st)
	}
	if !bytes.Equal(got.Bytes(), data) {
		t.Fatal("stream corrupted on the surviving path")
	}
	if st.Demotions < 2 {
		t.Fatalf("want both severed paths demoted, got %d demotions", st.Demotions)
	}
	var survivors int
	for _, p := range s.Paths() {
		if p.State == PathActive {
			survivors++
			if p.Loss > 0.5 {
				t.Fatalf("survivor path %d loss estimate %.3f poisoned by other paths' failures", p.Index, p.Loss)
			}
		}
	}
	if survivors != 1 {
		t.Fatalf("want exactly 1 surviving active path, got %d", survivors)
	}
	if p := sched.Pending(); p != 0 {
		t.Fatalf("%d timers pending after completion", p)
	}
}

// TestRestripeAfterPathDeath severs one path and shrinks the probe
// budget so it is declared dead mid-transfer. By death the path owns
// zero in-flight segments (each timeout reassigned its flights to
// surviving paths), and striping must rebalance: the remainder of the
// stream completes over both survivors.
func TestRestripeAfterPathDeath(t *testing.T) {
	sched, net := mpNet()
	r := InstallReceiver(net, 9, 7000)
	var got bytes.Buffer
	r.Out = &got
	cfg := mpConfig(7)
	cfg.ProbeEvery = 10 * sim.Millisecond
	cfg.MaxProbes = 2
	data := mpPayload(64 << 10)
	s := NewSender(net, &DisjointnessMax{}, 8, 9, 7000, data, cfg)
	var trace []string
	s.SetTrace(func(l string) { trace = append(trace, l) })
	sched.After(5*sim.Millisecond, func() { net.FailLink(9, 2) })
	s.Start()
	sched.Run()

	st := s.Stats()
	if !st.Done || st.Failed {
		t.Fatalf("transfer did not survive the path death: %+v", st)
	}
	if !bytes.Equal(got.Bytes(), data) {
		t.Fatal("stream corrupted after re-striping")
	}
	var dead *Path
	for _, p := range s.Paths() {
		if p.State == PathDead {
			q := p
			dead = &q
		}
	}
	if dead == nil {
		t.Fatalf("no path declared dead (trace: %d lines, demotions %d)", len(trace), st.Demotions)
	}
	if !strings.Contains(strings.Join(trace, "\n"), fmt.Sprintf("dead path=%d", dead.Index)) {
		t.Fatal("death not recorded in the decision log")
	}
	// Re-striping: both survivors carried post-death segments. The
	// receiver's echo histogram must show substantial traffic on two
	// distinct path IDs.
	live := 0
	for id, n := range r.PathSegments {
		if id != dead.Index+1 && n > 10 {
			live++
		}
	}
	if live < 2 {
		t.Fatalf("stream did not re-stripe across both survivors: distribution %v (dead path %d)",
			r.PathSegments, dead.Index)
	}
	if p := sched.Pending(); p != 0 {
		t.Fatalf("%d timers pending after completion", p)
	}
}

// TestNoSharedRetransmitTick pins the per-path jitter stream fix: RTO
// jitter is drawn from each path's own seeded RNG fork (never a shared
// stream), so two paths arming timers for the same base timeout still
// land on distinct ticks. Shared ticks would synchronize retransmit
// bursts across paths — exactly the thundering-herd pattern the jitter
// exists to break. Checked across many seeds on the driver substrate
// (the same code path the wire sender runs).
func TestNoSharedRetransmitTick(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		sched := sim.NewScheduler()
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.Window = 6
		cfg.SegmentSize = 64
		cfg.RTO = 10 * sim.Millisecond
		cfg.MaxRTO = 80 * sim.Millisecond
		cfg.MaxRetries = 4
		s := NewDriverSender(
			Driver{Clock: SimClock{sched}, Xmit: func(p *Path, seq uint32) error { return nil }},
			&ShortestK{}, fuzzCands(), 8, 9, 7000, make([]byte, 6*64), cfg)
		ticks := map[int64]int{} // absolute retransmit tick → owning path
		s.SetTrace(func(l string) {
			var at, seq, path, rto int64
			var retx bool
			if n, err := fmt.Sscanf(l, "t=%d tx seq=%d path=%d retx=%t rto=%d", &at, &seq, &path, &retx, &rto); n == 5 && err == nil {
				tick := at + rto
				if owner, ok := ticks[tick]; ok && owner != int(path) {
					t.Fatalf("seed %d: paths %d and %d share retransmit tick t=%d", seed, owner, path, tick)
				}
				ticks[tick] = int(path)
			}
		})
		s.Start()
		sched.Run() // no ACKs: every segment retries to exhaustion
		if len(ticks) < 6 {
			t.Fatalf("seed %d: trace recorded only %d transmissions", seed, len(ticks))
		}
	}
}
