package netsim

import (
	"runtime"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
)

// This file pins the forwarding fast-path invariants: zero-allocation
// steady-state hops, decoded-header/bytes coherence across middlebox
// transforms, single-pass middlebox chain semantics, the queue-overflow
// admission bound, silent-drop diagnostics, and dense link-table
// invalidation.

// linearNet builds an n-node chain with static shortest-path routing.
func linearNet(tb testing.TB, nodes int) (*Network, *sim.Scheduler) {
	tb.Helper()
	sched := sim.NewScheduler()
	g := topology.Linear(nodes, sim.Millisecond)
	n := New(sched, g)
	for id := topology.NodeID(1); id <= topology.NodeID(nodes); id++ {
		n.Node(id).Route = chainRoute(id)
	}
	return n, sched
}

// shardedChain is linearNet on k shards, each node's route on the shard
// that runs it. The degree-balanced partition deals the chain's inner
// nodes to the shards in turn, so at k = 2 nearly every hop is a handoff.
func shardedChain(nodes, k int) *Sharded {
	s := NewSharded(topology.Linear(nodes, sim.Millisecond), k)
	for id := topology.NodeID(1); id <= topology.NodeID(nodes); id++ {
		s.Owner(id).Node(id).Route = chainRoute(id)
	}
	return s
}

// chainRoute is node id's shortest-path route on a chain.
func chainRoute(id topology.NodeID) RouteFunc {
	return func(dst packet.Addr, tip *packet.TIP) (topology.NodeID, bool) {
		d := topology.NodeID(dst.Provider())
		switch {
		case d == id:
			return id, true
		case d > id:
			return id + 1, true
		default:
			return id - 1, true
		}
	}
}

func rawPacket(tb testing.TB, src, dst topology.NodeID, ttl uint8, payload int) []byte {
	tb.Helper()
	data, err := packet.Serialize(
		&packet.TIP{TTL: ttl, Proto: packet.LayerTypeRaw,
			Src: packet.MakeAddr(uint16(src), 1), Dst: packet.MakeAddr(uint16(dst), 1)},
		&packet.Raw{Data: make([]byte, payload)})
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// sendAllocs measures steady-state allocations for one full packet
// lifetime across a chain of the given length: on one network, or, when
// shards > 0, on a group of that many shards whose epochs run on the
// caller's goroutine.
func sendAllocs(t *testing.T, nodes, shards int) float64 {
	var launch func([]byte) *Trace
	var drain func()
	if shards == 0 {
		n, sched := linearNet(t, nodes)
		n.TraceEventCap = nodes + 2
		launch = func(b []byte) *Trace { return n.Send(1, b) }
		drain = sched.Run
	} else {
		s := shardedChain(nodes, shards)
		for _, sh := range s.Shards {
			sh.Net.TraceEventCap = nodes + 2
		}
		launch = func(b []byte) *Trace { return s.Send(1, b) }
		drain = s.Run
	}
	pristine := rawPacket(t, 1, topology.NodeID(nodes), uint8(nodes+8), 64)
	buf := make([]byte, len(pristine))
	send := func() {
		copy(buf, pristine) // restore the TTL the previous run decremented
		tr := launch(buf)
		drain()
		if !tr.Delivered {
			t.Fatalf("drop on %d-node chain: %s", nodes, tr.DropReason)
		}
	}
	for i := 0; i < 10; i++ {
		send() // warm the flight pool and scheduler slot pool
	}
	return testing.AllocsPerRun(100, send)
}

// A steady-state forward hop must not allocate: total allocations per
// packet are a constant (trace + event slab), independent of path length.
func TestForwardHopZeroAlloc(t *testing.T) {
	short := sendAllocs(t, 8, 0)
	long := sendAllocs(t, 40, 0)
	if long != short {
		t.Fatalf("per-packet allocs grew with path length: %.1f on 8 nodes vs %.1f on 40 nodes — forward hop is not zero-alloc",
			short, long)
	}
	// The per-packet constant: Trace struct + pre-sized event slab.
	if short > 2 {
		t.Fatalf("steady-state packet cost %.1f allocs, want <= 2 (Trace + event slab)", short)
	}
	// Keyed hops and cross-shard handoffs: on 2 shards nearly every hop
	// changes shard.
	short = sendAllocs(t, 8, 2)
	long = sendAllocs(t, 40, 2)
	if long != short {
		t.Fatalf("per-packet allocs grew with path length on 2 shards: %.1f on 8 nodes vs %.1f on 40 nodes — a keyed hop or handoff allocates",
			short, long)
	}
	// The packet ends on the other shard, which hands its flight back to
	// the shard that made it, so the next send reuses the flight.
	if short > 2 {
		t.Fatalf("steady-state packet cost on 2 shards %.1f allocs, want <= 2 (Trace + event slab)", short)
	}
}

// Flights go back to the shard that made them, serial or parallel: after
// each drain, every flight is on its maker's free list, so a shard that
// launches packets ending on another shard reuses its flights instead of
// making new ones while the other shard hoards them.
func TestFlightsGoHome(t *testing.T) {
	const burst = 10
	for _, parallel := range []bool{false, true} {
		s := shardedChain(8, 2)
		s.Parallel = parallel
		src := s.Owner(1)
		if s.Owner(8) == src {
			t.Fatal("nodes 1 and 8 share a shard; the packets would not change shard at the end")
		}
		data := rawPacket(t, 1, 8, 16, 64)
		for round := 0; round < 5; round++ {
			for i := 0; i < burst; i++ {
				src.Inject(1, data)
			}
			s.Run()
		}
		if got := s.Delivered(); got != 5*burst {
			t.Fatalf("parallel=%v: delivered %d packets, want %d", parallel, got, 5*burst)
		}
		for _, sh := range s.Shards {
			free := 0
			for f := sh.Net.freeFlights; f != nil; f = f.nextFree {
				if f.home != sh.Net {
					t.Fatalf("parallel=%v: shard %d's free list holds a flight shard %d made", parallel, sh.ID, f.home.shard)
				}
				free++
			}
			want := 0
			if sh.Net == src {
				want = burst
			}
			if free != want {
				t.Errorf("parallel=%v: shard %d holds %d free flights after the drains, want %d", parallel, sh.ID, free, want)
			}
		}
	}
}

// tagBox records every invocation: which direction it saw and how often
// it ran.
type tagBox struct {
	name string
	dirs []Direction
}

func (b *tagBox) Name() string { return b.name }
func (b *tagBox) Silent() bool { return false }
func (b *tagBox) Process(node topology.NodeID, dir Direction, data []byte) ([]byte, Verdict) {
	b.dirs = append(b.dirs, dir)
	return nil, Accept
}

// redirBox rewrites Dst once.
type redirBox struct {
	to   packet.Addr
	runs int
}

func (r *redirBox) Name() string { return "redir" }
func (r *redirBox) Silent() bool { return false }
func (r *redirBox) Process(node topology.NodeID, dir Direction, data []byte) ([]byte, Verdict) {
	r.runs++
	var tip packet.TIP
	if err := tip.DecodeFrom(data); err != nil || tip.Dst == r.to {
		return nil, Accept
	}
	payload := make([]byte, len(tip.LayerPayload()))
	copy(payload, tip.LayerPayload())
	tip2 := tip
	tip2.Dst = r.to
	out, err := packet.Serialize(&tip2, &packet.Raw{Data: payload})
	if err != nil {
		return nil, Accept
	}
	return out, Accept
}

// The middlebox chain is single-pass: when a transform flips the packet's
// direction mid-chain (Forwarding→Delivering here), devices later in the
// chain see the new direction, but devices earlier in the chain are not
// re-run under it.
func TestMiddleboxChainSinglePassOnDirFlip(t *testing.T) {
	n, sched := linearNet(t, 4)
	before := &tagBox{name: "before"}
	after := &tagBox{name: "after"}
	nd := n.Node(3)
	nd.AddMiddlebox(before)
	nd.AddMiddlebox(&redirBox{to: packet.MakeAddr(3, 1)}) // transit→local
	nd.AddMiddlebox(after)
	tr := n.Send(1, rawPacket(t, 1, 4, 16, 8))
	sched.Run()
	if !tr.Delivered {
		t.Fatalf("drop: %s", tr.DropReason)
	}
	if p := tr.Path(); p[len(p)-1] != 3 {
		t.Fatalf("redirected packet terminated at %v, want node 3", p)
	}
	if len(before.dirs) != 1 || before.dirs[0] != Forwarding {
		t.Fatalf("pre-transform box ran %v, want exactly one Forwarding pass (no re-run after the flip)", before.dirs)
	}
	if len(after.dirs) != 1 || after.dirs[0] != Delivering {
		t.Fatalf("post-transform box ran %v, want exactly one Delivering pass", after.dirs)
	}
}

// The reverse flip (Delivering→Forwarding): a transform at the packet's
// destination re-addresses it elsewhere, and the packet forwards on —
// still without re-running the earlier devices.
func TestMiddleboxChainDirFlipToForwarding(t *testing.T) {
	n, sched := linearNet(t, 4)
	before := &tagBox{name: "before"}
	nd := n.Node(3)
	nd.AddMiddlebox(before)
	nd.AddMiddlebox(&redirBox{to: packet.MakeAddr(4, 1)}) // local→transit
	delivered := map[topology.NodeID]bool{}
	for _, id := range []topology.NodeID{3, 4} {
		id := id
		n.Node(id).Deliver = func(nd *Node, tr *Trace, data []byte) { delivered[id] = true }
	}
	tr := n.Send(1, rawPacket(t, 1, 3, 16, 8))
	sched.Run()
	if !tr.Delivered || delivered[3] || !delivered[4] {
		t.Fatalf("bounce failed: delivered=%v trace=%+v", delivered, tr)
	}
	if len(before.dirs) != 1 || before.dirs[0] != Delivering {
		t.Fatalf("pre-transform box ran %v, want exactly one Delivering pass", before.dirs)
	}
}

type silentBox struct{}

func (silentBox) Name() string { return "covert-device" }
func (silentBox) Silent() bool { return true }
func (silentBox) Process(node topology.NodeID, dir Direction, data []byte) ([]byte, Verdict) {
	return nil, Drop
}

// A silent middlebox drop must leave an anonymous loss: reason "lost",
// no device name anywhere in the trace, but the path up to the loss
// still inferable.
func TestSilentDropTraceDiagnostics(t *testing.T) {
	n, sched := linearNet(t, 4)
	n.Node(3).AddMiddlebox(silentBox{})
	tr := n.Send(1, rawPacket(t, 1, 4, 16, 8))
	sched.Run()
	if tr.Delivered {
		t.Fatal("should have been dropped")
	}
	if tr.DropReason != "lost" || tr.DropNode != 3 {
		t.Fatalf("drop = %q at %d, want \"lost\" at 3", tr.DropReason, tr.DropNode)
	}
	for _, e := range tr.Events {
		if e.Action == "drop" && e.Detail != "lost" {
			t.Fatalf("drop event leaked device identity: %+v", e)
		}
		if e.Detail == "covert-device" || e.Detail == "blocked:covert-device" {
			t.Fatalf("trace leaked silent device name: %+v", e)
		}
	}
	if got := n.Stats["drop:lost"]; got != 1 {
		t.Fatalf("drop:lost counter = %d, want 1", got)
	}
}

// Path and Latency on dropped packets: the path covers the nodes reached
// (drop events excluded), and latency is zero because the packet never
// completed its transit.
func TestPathAndLatencyOnDroppedPackets(t *testing.T) {
	n, sched := linearNet(t, 4)
	// TTL expiry mid-path.
	trTTL := n.Send(1, rawPacket(t, 1, 4, 2, 8))
	// No route: strip node 2's routing.
	sched.Run()
	n.Node(2).Route = nil
	trNoRoute := n.Send(1, rawPacket(t, 1, 4, 16, 8))
	sched.Run()

	if trTTL.DropReason != "ttl" {
		t.Fatalf("drop reason = %q, want ttl", trTTL.DropReason)
	}
	wantPath := []topology.NodeID{1, 2}
	if p := trTTL.Path(); len(p) != len(wantPath) || p[0] != 1 || p[1] != 2 {
		t.Fatalf("ttl-drop path = %v, want %v (send + one forward)", p, wantPath)
	}
	if trTTL.Latency() != 0 {
		t.Fatalf("dropped packet latency = %v, want 0", trTTL.Latency())
	}
	if trNoRoute.DropReason != "no-route" || trNoRoute.DropNode != 2 {
		t.Fatalf("drop = %q at %d, want no-route at 2", trNoRoute.DropReason, trNoRoute.DropNode)
	}
	if trNoRoute.Latency() != 0 {
		t.Fatalf("dropped packet latency = %v, want 0", trNoRoute.Latency())
	}
	if ev := trNoRoute.Events[len(trNoRoute.Events)-1]; ev.Action != "drop" || ev.Detail != "no-route" {
		t.Fatalf("final event = %+v, want drop/no-route", ev)
	}
}

// The queue-overflow admission rule: a packet is accepted only when the
// backlog it leaves behind fits within MaxQueue, so the per-link backlog
// never exceeds the bound.
func TestQueueOverflowNeverExceedsBound(t *testing.T) {
	n, sched := linearNet(t, 2)
	n.LinkRate = 1e4 // 10 KB/s: tens of ms of serialization per packet
	n.MaxQueue = 10 * sim.Millisecond
	var traces []*Trace
	for i := 0; i < 50; i++ {
		traces = append(traces, n.Send(1, rawPacket(t, 1, 2, 8, 16)))
	}
	sched.Run()
	accepted, dropped := 0, 0
	for _, tr := range traces {
		if tr.DropReason == "queue-overflow" {
			dropped++
		} else if tr.Delivered {
			accepted++
		}
	}
	if dropped == 0 {
		t.Fatal("expected overflow drops on a saturated link")
	}
	// All sends happen at t=0, so each accepted packet stacked its full
	// serialization time onto the backlog; the total must fit the bound.
	pkt := rawPacket(t, 1, 2, 8, 16)
	txTime := sim.Time(float64(len(pkt)) / n.LinkRate * float64(sim.Second))
	if backlog := sim.Time(accepted) * txTime; backlog > n.MaxQueue {
		t.Fatalf("accepted %d packets stack %v of backlog, exceeding MaxQueue %v", accepted, backlog, n.MaxQueue)
	}
	if want := int(n.MaxQueue / txTime); accepted != want {
		t.Fatalf("accepted %d packets, want %d (floor(MaxQueue/txTime))", accepted, want)
	}
}

// A middlebox transform must leave the carried decoded header coherent
// with the bytes: after a redirect, downstream routing (which reads the
// decoded header) must follow the rewritten destination, and in-place
// source-route advances must stay visible in both representations.
func TestDecodedHeaderCoherenceAfterTransform(t *testing.T) {
	n, sched := linearNet(t, 5)
	n.Node(2).AddMiddlebox(&redirBox{to: packet.MakeAddr(5, 1)})
	tr := n.Send(1, rawPacket(t, 1, 3, 16, 8))
	sched.Run()
	if !tr.Delivered {
		t.Fatalf("drop: %s", tr.DropReason)
	}
	if p := tr.Path(); p[len(p)-1] != 5 {
		t.Fatalf("routing ignored rewritten destination: path %v", p)
	}
}

// TestInjectBytesPerPacket bounds what a fire-and-forget packet costs
// while it is in flight. It injects n packets at once over a link that
// duplicates every packet, so n flights and their n copies are live
// together and none can reuse another's context, and it divides the
// growth of TotalAlloc by the 2n packets. A packet's own cost is its
// flight, buffer and scheduling closure, plus its shares of the
// scheduler's slot pool and heap; a Trace with an event slab per
// packet, which no caller of Inject can read, pushes it past the bound.
func TestInjectBytesPerPacket(t *testing.T) {
	const n = 1000
	net, sched := chainNet(t)
	net.ImpairLink(1, 2, LinkImpairment{Duplicate: 1}, sim.NewRNG(5))
	delivered := 0
	net.Node(2).Deliver = func(*Node, *Trace, []byte) { delivered++ }
	pkt := mkPkt(t, packet.MakeAddr(1, 1), packet.MakeAddr(2, 1), 16)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range n {
		net.Inject(1, pkt)
	}
	sched.Run()
	runtime.ReadMemStats(&after)
	if delivered != 2*n {
		t.Fatalf("delivered %d packets, want %d originals and copies", delivered, 2*n)
	}
	perPacket := float64(after.TotalAlloc-before.TotalAlloc) / (2 * n)
	t.Logf("%.0f bytes per packet", perPacket)
	if perPacket > 600 {
		t.Fatalf("a fire-and-forget packet cost %.0f bytes in flight, want <= 600", perPacket)
	}
}
