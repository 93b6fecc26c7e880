package netsim

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
)

// This file pins the observability contract of the forwarding layer: the
// tracer must see middlebox rewrites, queue-overflow drops, and
// link-fault drops, and the metric counters must agree with the traces.

// attachRing wires a fresh registry and ring-buffer tracer to n.
func attachRing(n *Network) (*obs.Registry, *obs.Ring) {
	reg := obs.NewRegistry()
	ring := obs.NewRing(4096)
	n.AttachObs(reg, obs.NewTracer(ring))
	return reg, ring
}

// A middlebox transform must surface as an mbox-rewrite event naming the
// device — the §IV-C "design for visibility" requirement applied to the
// boxes that rewrite traffic.
func TestTracerSeesMiddleboxRewrite(t *testing.T) {
	n, sched := linearNet(t, 4)
	reg, ring := attachRing(n)
	rb := &redirBox{to: packet.MakeAddr(3, 1)}
	n.Node(2).AddMiddlebox(rb)

	tr := n.Send(1, rawPacket(t, 1, 4, 8, 16))
	sched.Run()
	if !tr.Delivered {
		t.Fatalf("packet dropped: %s", tr.DropReason)
	}
	events := findEvents(ring, "mbox-rewrite")
	if len(events) == 0 {
		t.Fatal("no mbox-rewrite events traced")
	}
	ev := events[0]
	if ev.Node != 2 || ev.Detail != "redir" {
		t.Fatalf("rewrite event = %+v, want node 2 detail %q", ev, "redir")
	}
	snap := reg.Snapshot()
	if got := counterValue(t, snap, "netsim.mbox.rewrites"); got != int64(len(events)) {
		t.Fatalf("netsim.mbox.rewrites = %d, traced %d rewrite events", got, len(events))
	}
}

// A silent middlebox's rewrite must not leak the device name into the
// trace — silence is part of the middlebox's contract.
func TestTracerHidesSilentRewriteName(t *testing.T) {
	n, sched := linearNet(t, 4)
	_, ring := attachRing(n)
	n.Node(2).AddMiddlebox(&silentRedir{redirBox{to: packet.MakeAddr(3, 1)}})

	n.Send(1, rawPacket(t, 1, 4, 8, 16))
	sched.Run()
	events := findEvents(ring, "mbox-rewrite")
	if len(events) == 0 {
		t.Fatal("no mbox-rewrite events traced")
	}
	if events[0].Detail != "" {
		t.Fatalf("silent rewrite leaked device name %q", events[0].Detail)
	}
}

// silentRedir is a redirBox that claims silence.
type silentRedir struct {
	redirBox
}

func (s *silentRedir) Silent() bool { return true }
func (s *silentRedir) Process(node topology.NodeID, dir Direction, data []byte) ([]byte, Verdict) {
	return s.redirBox.Process(node, dir, data)
}

// Queue-overflow drops must be traced with their reason and counted
// under the per-reason drop counter.
func TestTracerSeesQueueOverflowDrop(t *testing.T) {
	n, sched := linearNet(t, 2)
	reg, ring := attachRing(n)
	n.LinkRate = 1e4
	n.MaxQueue = 10 * sim.Millisecond
	for i := 0; i < 50; i++ {
		n.Send(1, rawPacket(t, 1, 2, 8, 16))
	}
	sched.Run()
	overflow := 0
	for _, ev := range findEvents(ring, "drop") {
		if ev.Detail == "queue-overflow" {
			overflow++
			if ev.Node != 1 {
				t.Fatalf("overflow drop attributed to node %d, want 1 (admission side)", ev.Node)
			}
		}
	}
	if overflow == 0 {
		t.Fatal("no queue-overflow drop events traced on a saturated link")
	}
	snap := reg.Snapshot()
	if got := counterValue(t, snap, "netsim.drop.queue-overflow"); got != int64(overflow) {
		t.Fatalf("netsim.drop.queue-overflow = %d, traced %d overflow events", got, overflow)
	}
}

// Link-fault drops must be traced with the link-down reason.
func TestTracerSeesLinkFaultDrop(t *testing.T) {
	n, sched := linearNet(t, 3)
	reg, ring := attachRing(n)
	n.FailLink(1, 2)

	tr := n.Send(1, rawPacket(t, 1, 3, 8, 16))
	sched.Run()
	if tr.Delivered {
		t.Fatal("packet delivered across a failed link")
	}
	events := findEvents(ring, "drop")
	if len(events) != 1 || events[0].Detail != "link-down" {
		t.Fatalf("drop events = %+v, want one link-down", events)
	}
	snap := reg.Snapshot()
	if got := counterValue(t, snap, "netsim.drop.link-down"); got != 1 {
		t.Fatalf("netsim.drop.link-down = %d, want 1", got)
	}
	if got := counterValue(t, snap, "netsim.drops"); got != 1 {
		t.Fatalf("netsim.drops = %d, want 1", got)
	}
}

// End-to-end coherence: sends, deliveries, and drops traced must match
// the counters, and delivery events carry the simulated latency.
func TestTracerAndCountersAgree(t *testing.T) {
	n, sched := linearNet(t, 4)
	reg, ring := attachRing(n)
	var traces []*Trace
	for i := 0; i < 5; i++ {
		traces = append(traces, n.Send(1, rawPacket(t, 1, 4, 8, 16)))
	}
	sched.Run()
	snap := reg.Snapshot()
	if got := counterValue(t, snap, "netsim.sends"); got != 5 {
		t.Fatalf("netsim.sends = %d, want 5", got)
	}
	delivers := findEvents(ring, "deliver")
	if len(delivers) != 5 || counterValue(t, snap, "netsim.delivered") != 5 {
		t.Fatalf("deliver events = %d, counter = %d, want 5/5",
			len(delivers), counterValue(t, snap, "netsim.delivered"))
	}
	for i, ev := range delivers {
		if want := float64(traces[i].Latency()); ev.Value != want {
			t.Fatalf("deliver event %d latency = %v, want %v", i, ev.Value, want)
		}
	}
}

// AttachObs(nil, nil) must return the network to the uninstrumented
// zero-alloc fast path.
func TestDetachObsRestoresFastPath(t *testing.T) {
	n, sched := linearNet(t, 3)
	attachRing(n)
	n.Send(1, rawPacket(t, 1, 3, 8, 16))
	sched.Run()
	n.AttachObs(nil, nil)
	if n.obs != nil || n.tracer != nil {
		t.Fatal("AttachObs(nil, nil) left instrumentation attached")
	}
	tr := n.Send(1, rawPacket(t, 1, 3, 8, 16))
	sched.Run()
	if !tr.Delivered {
		t.Fatalf("post-detach packet dropped: %s", tr.DropReason)
	}
}

// counterValue finds a counter in a snapshot by name.
func counterValue(t *testing.T, snap *obs.Snapshot, name string) int64 {
	t.Helper()
	for _, c := range snap.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	t.Fatalf("counter %q not in snapshot", name)
	return 0
}

// findEvents returns the ring's retained netsim events of one kind,
// oldest first.
func findEvents(ring *obs.Ring, kind string) []obs.Event {
	var out []obs.Event
	for _, e := range ring.Events() {
		if e.Scope == "netsim" && e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}
