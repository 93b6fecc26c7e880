package invariant

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/topology"
)

// The canary tests are the mutate-and-detect suite: each one deliberately
// breaks exactly one invariant through a sabotage hook and asserts the
// checker reports it, then shrinks the sabotaged trial and asserts the
// reproducer is minimal (≤ 8 fault-plan events) and round-trips through
// its canonical JSON encoding. A checker that cannot catch a deliberate
// breach cannot be trusted to catch an accidental one.

// sinkFunc adapts a function to obs.Sink.
type sinkFunc func(obs.Event)

func (f sinkFunc) Emit(e obs.Event) { f(e) }

func hasInvariant(vs []Violation, name string) bool {
	for _, v := range vs {
		if v.Invariant == name {
			return true
		}
	}
	return false
}

// runCanary scans seeds for a scenario where the base run is clean, the
// sabotaged run fires the target invariant, and the shrunk reproducer
// stays within the minimality budget. want pre-filters scenarios (e.g.
// "has a transfer") to skip seeds the sabotage cannot bite.
func runCanary(t *testing.T, target string, hk *hooks, want func(*Scenario) bool) {
	t.Helper()
	enabled := AllSet()
	for seed := uint64(1); seed <= 60; seed++ {
		sc := Generate(seed)
		if want != nil && !want(sc) {
			continue
		}
		if vs := runScenario(sc, enabled, nil).violations; len(vs) != 0 {
			t.Fatalf("seed %d: base run not clean: %v", seed, vs[0])
		}
		vs := runScenario(sc, enabled, hk).violations
		if !hasInvariant(vs, target) {
			continue // sabotage did not bite this scenario; try the next
		}

		repro := ShrinkScenario(sc, enabled, target, hk, 300)
		if repro.Invariant != target {
			t.Fatalf("repro invariant = %q, want %q", repro.Invariant, target)
		}
		if repro.Detail == "" {
			t.Fatalf("shrunk reproducer no longer fires %s", target)
		}
		if n := len(repro.Scenario.Plan.Events); n > 8 {
			t.Fatalf("shrunk reproducer has %d plan events, want <= 8", n)
		}
		if len(repro.Scenario.Traffic) > len(sc.Traffic) {
			t.Fatalf("shrinking grew the traffic matrix: %d > %d", len(repro.Scenario.Traffic), len(sc.Traffic))
		}

		buf, err := repro.Encode()
		if err != nil {
			t.Fatalf("encode repro: %v", err)
		}
		back, err := ParseRepro(buf)
		if err != nil {
			t.Fatalf("parse encoded repro: %v", err)
		}
		buf2, err := back.Encode()
		if err != nil {
			t.Fatalf("re-encode repro: %v", err)
		}
		if !bytes.Equal(buf, buf2) {
			t.Fatalf("repro encoding is not a fixed point:\n%s\nvs\n%s", buf, buf2)
		}
		return
	}
	t.Fatalf("no seed in 1..60 made the %s canary fire", target)
}

// Skipping a drop event must break packet conservation.
func TestCanaryConservation(t *testing.T) {
	hk := &hooks{wrapSink: func(s obs.Sink) obs.Sink {
		skipped := false
		return sinkFunc(func(e obs.Event) {
			if !skipped && e.Scope == "netsim" && e.Kind == "drop" {
				skipped = true
				return
			}
			s.Emit(e)
		})
	}}
	runCanary(t, Conservation, hk, nil)
}

// Oversubscribing the transmit queue must break the queue bound.
func TestCanaryQueueBound(t *testing.T) {
	hk := &hooks{wrapSink: func(s obs.Sink) obs.Sink {
		forged := false
		return sinkFunc(func(e obs.Event) {
			if !forged && e.Scope == "netsim" && e.Kind == "enqueue" {
				forged = true
				e.Value += 2e8 // 200ms of phantom backlog, twice MaxQueue
			}
			s.Emit(e)
		})
	}}
	runCanary(t, QueueBound, hk, nil)
}

// A timestamp regression in the event stream must break monotonicity.
func TestCanaryClock(t *testing.T) {
	hk := &hooks{wrapSink: func(s obs.Sink) obs.Sink {
		n := 0
		return sinkFunc(func(e obs.Event) {
			n++
			if n == 2 {
				e.Time = -1
			}
			s.Emit(e)
		})
	}}
	runCanary(t, Clock, hk, nil)
}

// Rewriting a trace so its timestamps regress must break trace validity.
func TestCanaryTrace(t *testing.T) {
	hk := &hooks{mutateTrace: func(tr *netsim.Trace) {
		if len(tr.Events) >= 2 {
			tr.Events[0].At = tr.Events[len(tr.Events)-1].At + 1
		}
	}}
	runCanary(t, TraceValid, hk, nil)
}

// Installing mutually-referential routes must be caught as a loop.
func TestCanaryLoopFree(t *testing.T) {
	hk := &hooks{beforeFinish: func(net *netsim.Network, c *Checker) {
		for _, l := range net.Graph.Links {
			a, b := l.A, l.B
			if net.NodeFailed(a) || net.NodeFailed(b) {
				continue
			}
			net.Node(a).Route = func(packet.Addr, *packet.TIP) (topology.NodeID, bool) { return b, true }
			net.Node(b).Route = func(packet.Addr, *packet.TIP) (topology.NodeID, bool) { return a, true }
			return
		}
	}}
	runCanary(t, LoopFree, hk, nil)
}

// Synthesizing a delivery across a standing cut must be caught.
func TestCanaryCutDelivery(t *testing.T) {
	hk := &hooks{beforeFinish: func(net *netsim.Network, c *Checker) {
		for _, ep := range c.epochs {
			for _, l := range net.Graph.Links {
				ca, cb := ep.comp[l.A], ep.comp[l.B]
				if ca == cb && ca >= 0 {
					continue // endpoints connected in this epoch
				}
				before := len(c.violations)
				c.CheckTrace(&netsim.Trace{
					Delivered: true,
					SentAt:    ep.start,
					DoneAt:    ep.start,
					Events: []netsim.TraceEvent{
						{At: ep.start, Node: l.A, Action: "send"},
						{At: ep.start, Node: l.B, Action: "deliver"},
					},
				}, 64)
				if len(c.violations) > before {
					return // the forged cross-cut delivery was convicted
				}
			}
		}
	}}
	// Only plans that actually sever something produce a separated epoch.
	runCanary(t, CutDelivery, hk, func(sc *Scenario) bool {
		for _, ev := range sc.Plan.Events {
			switch ev.Kind {
			case "partition", "link-down", "node-crash":
				return true
			}
		}
		return false
	})
}

// Wiping the routing tables at probe time must break heal-reachability.
func TestCanaryReach(t *testing.T) {
	hk := &hooks{postPlan: func(net *netsim.Network) {
		for _, id := range net.Graph.NodeIDs() {
			net.Node(id).Route = nil
		}
	}}
	runCanary(t, Reach, hk, nil)
}

// Corrupting the receiver's reassembled stream on its way to the
// prefix check must break the transport prefix invariant.
func TestCanaryTransport(t *testing.T) {
	hk := &hooks{corruptStream: func(w io.Writer) io.Writer { return &flipFirst{w: w} }}
	runCanary(t, Transport, hk, func(sc *Scenario) bool { return sc.Transfer != nil })
}

// flipFirst passes a stream on with its first byte inverted.
type flipFirst struct {
	w       io.Writer
	flipped bool
}

func (f *flipFirst) Write(p []byte) (int, error) {
	if !f.flipped && len(p) > 0 {
		f.flipped = true
		p = bytes.Clone(p)
		p[0] ^= 0xff
	}
	return f.w.Write(p)
}

// Tampering with one side of the merged snapshots must break
// merge-commutativity.
func TestCanaryMergeCommute(t *testing.T) {
	hk := &hooks{mutateSnap: func(s *obs.Snapshot) {
		if len(s.Counters) > 0 {
			s.Counters[0].Value++
		} else {
			s.Counters = append(s.Counters, obs.CounterSnap{Name: "forged", Value: 1})
		}
	}}
	runCanary(t, MergeCommute, hk, nil)
}
