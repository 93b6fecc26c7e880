package netsim

import (
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
)

// This file pins the compiled source-route admission policy: the `paid`
// policy's decision shows in the packet header, richer vocabularies steer
// routing, out-of-vocabulary references are refused at install time, and
// an installed policy keeps the forward hop zero-alloc.

// useSourceRoutePolicy compiles src and installs it on nd, as
// wire.NewDataplane does for a live forwarder.
func useSourceRoutePolicy(t *testing.T, nd *Node, src string) {
	t.Helper()
	p, err := CompileSourceRoutePolicy(src)
	if err != nil {
		t.Fatal(err)
	}
	nd.UseSourceRoutePolicy(p)
}

func srcRoutedPkt(t *testing.T, pay bool, via uint16) []byte {
	t.Helper()
	tip := &packet.TIP{
		TTL: 8, Proto: packet.LayerTypeRaw,
		Src: packet.MakeAddr(1, 1), Dst: packet.MakeAddr(4, 1),
		SourceRoute: &packet.SourceRouteOption{Hops: []packet.Addr{packet.MakeAddr(via, 0)}},
	}
	if pay {
		tip.Payment = &packet.PaymentOption{Payer: tip.Src, AmountMilli: 100}
	}
	data, err := packet.Serialize(tip, &packet.Raw{Data: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// Under the `paid` policy the decision shows in the packet itself: the
// node at the waypoint advances an admitted source route's pointer and
// leaves a refused one untouched. On the chain both packets take the
// node's own route, so only the header tells them apart.
func TestSourceRoutePolicyPaidEquivalence(t *testing.T) {
	n, sched := chainNet(t)
	for id := topology.NodeID(1); id <= 4; id++ {
		nd := n.Node(id)
		nd.HonorSourceRoutes = true
		useSourceRoutePolicy(t, nd, "paid")
	}
	ptr := map[*Trace]uint8{}
	n.Node(4).Deliver = func(_ *Node, tr *Trace, data []byte) {
		var tip packet.TIP
		if err := tip.DecodeFrom(data); err != nil || tip.SourceRoute == nil {
			t.Errorf("delivered packet lost its source route: %v", err)
			return
		}
		ptr[tr] = tip.SourceRoute.Ptr
	}
	trUnpaid := n.Send(1, srcRoutedPkt(t, false, 3))
	trPaid := n.Send(1, srcRoutedPkt(t, true, 3))
	sched.Run()
	if !trUnpaid.Delivered || !trPaid.Delivered {
		t.Fatalf("deliveries: unpaid=%v paid=%v", trUnpaid.Delivered, trPaid.Delivered)
	}
	if ptr[trUnpaid] != 0 || ptr[trPaid] != 1 {
		t.Fatalf("source-route pointer at delivery: unpaid %d, paid %d; want 0 and 1", ptr[trUnpaid], ptr[trPaid])
	}
}

// diamondNet is the 1-{2,3}-4 topology from TestSourceRouteHonored:
// default routing prefers via 2, a source route can force via 3.
func diamondNet(t *testing.T) (*Network, *sim.Scheduler) {
	t.Helper()
	sched := sim.NewScheduler()
	g := topology.NewGraph()
	for i := 1; i <= 4; i++ {
		g.AddNode(topology.NodeID(i), topology.Transit, 1)
	}
	g.AddLink(1, 2, topology.PeerOf, sim.Millisecond, 1)
	g.AddLink(2, 4, topology.PeerOf, sim.Millisecond, 1)
	g.AddLink(1, 3, topology.PeerOf, sim.Millisecond, 1)
	g.AddLink(3, 4, topology.PeerOf, sim.Millisecond, 1)
	n := New(sched, g)
	routes := map[topology.NodeID]map[uint16]topology.NodeID{
		1: {2: 2, 3: 3, 4: 2},
		2: {1: 1, 4: 4, 3: 1},
		3: {1: 1, 4: 4, 2: 1},
		4: {2: 2, 3: 3, 1: 2},
	}
	for id, tbl := range routes {
		tbl := tbl
		nd := n.Node(id)
		nd.HonorSourceRoutes = true
		nd.Route = func(dst packet.Addr, tip *packet.TIP) (topology.NodeID, bool) {
			nh, ok := tbl[dst.Provider()]
			return nh, ok
		}
	}
	return n, sched
}

// A vocabulary-rich policy steers routing: nodes that refuse waypoint
// provider 3 push the packet back onto default forwarding (via 2), while
// permissive nodes honor the detour.
func TestSourceRoutePolicyWaypointSteering(t *testing.T) {
	n, sched := diamondNet(t)
	for id := topology.NodeID(1); id <= 4; id++ {
		useSourceRoutePolicy(t, n.Node(id), "!(waypoint-provider == 3) || paid")
	}
	trUnpaid := n.Send(1, srcRoutedPkt(t, false, 3))
	trPaid := n.Send(1, srcRoutedPkt(t, true, 3))
	sched.Run()
	if !trUnpaid.Delivered || !trPaid.Delivered {
		t.Fatalf("deliveries: unpaid=%v paid=%v (%s/%s)",
			trUnpaid.Delivered, trPaid.Delivered, trUnpaid.DropReason, trPaid.DropReason)
	}
	if p := trUnpaid.Path(); p[1] != 2 {
		t.Fatalf("denied-waypoint path = %v, want default via 2", p)
	}
	if p := trPaid.Path(); p[1] != 3 {
		t.Fatalf("paid-waypoint path = %v, want forced via 3", p)
	}
}

// Out-of-vocabulary references are compile-time errors, not per-packet
// surprises; parse errors surface too. The compiled policy carries its
// canonical text, installing it gives the forwarder its own scratch, and
// nil clears it.
func TestSourceRoutePolicyInstall(t *testing.T) {
	if _, err := CompileSourceRoutePolicy("port == 80"); err == nil ||
		!strings.Contains(err.Error(), `"port"`) {
		t.Fatalf("out-of-vocabulary compile error = %v", err)
	}
	if _, err := CompileSourceRoutePolicy("paid &&"); err == nil {
		t.Fatal("parse error not surfaced at compile")
	}
	p, err := CompileSourceRoutePolicy("paid && ttl > 2")
	if err != nil {
		t.Fatal(err)
	}
	nd := &Node{}
	nd.UseSourceRoutePolicy(p)
	if nd.srcRoutePolicy != p || len(nd.srcRouteSlots) != 2 {
		t.Fatalf("install: policy %p slots %d, want %p and 2", nd.srcRoutePolicy, len(nd.srcRouteSlots), p)
	}
	nd.UseSourceRoutePolicy(nil)
	if nd.srcRoutePolicy != nil || nd.srcRouteSlots != nil {
		t.Fatal("nil did not clear the policy")
	}
}

// An installed policy must not break the steady-state allocation
// contract: policy evaluation runs on the pooled VM through caller-owned
// slots, so a source-routed packet costs the same constant as before.
func TestSourceRoutePolicyZeroAllocHop(t *testing.T) {
	if raceEnabled {
		// The race detector makes sync.Pool drop 25% of Puts by design;
		// at seven pooled VM round-trips per send the bound below is
		// then noise, not signal.
		t.Skip("pooled-VM alloc bound is not meaningful under -race")
	}
	nodes := 8
	n, sched := linearNet(t, nodes)
	n.TraceEventCap = nodes + 2
	for id := topology.NodeID(1); id <= topology.NodeID(nodes); id++ {
		nd := n.Node(id)
		nd.HonorSourceRoutes = true
		useSourceRoutePolicy(t, nd, "paid && ttl > 0 && waypoint-provider < 100")
	}
	tip := &packet.TIP{
		TTL: uint8(nodes + 8), Proto: packet.LayerTypeRaw,
		Src: packet.MakeAddr(1, 1), Dst: packet.MakeAddr(uint16(nodes), 1),
		SourceRoute: &packet.SourceRouteOption{Hops: []packet.Addr{packet.MakeAddr(4, 0)}},
		Payment:     &packet.PaymentOption{Payer: packet.MakeAddr(1, 1), AmountMilli: 100},
	}
	pristine, err := packet.Serialize(tip, &packet.Raw{Data: make([]byte, 64)})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(pristine))
	send := func() {
		copy(buf, pristine) // restore TTL and source-route pointer
		tr := n.Send(1, buf)
		sched.Run()
		if !tr.Delivered {
			t.Fatalf("drop: %s", tr.DropReason)
		}
	}
	for i := 0; i < 10; i++ {
		send()
	}
	if allocs := testing.AllocsPerRun(100, send); allocs > 2 {
		t.Fatalf("policy-gated packet costs %.1f allocs, want <= 2 (Trace + event slab)", allocs)
	}
}
