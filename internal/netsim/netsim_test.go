package netsim

import (
	"fmt"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
)

// chainNet builds a 1-2-3-4 chain with static next-hop routing.
func chainNet(t *testing.T) (*Network, *sim.Scheduler) {
	t.Helper()
	sched := sim.NewScheduler()
	g := topology.Linear(4, sim.Millisecond)
	n := New(sched, g)
	for id := topology.NodeID(1); id <= 4; id++ {
		id := id
		n.Node(id).Route = func(dst packet.Addr, tip *packet.TIP) (topology.NodeID, bool) {
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
	return n, sched
}

func mkPkt(t *testing.T, src, dst packet.Addr, ttl uint8) []byte {
	t.Helper()
	data, err := packet.Serialize(
		&packet.TIP{TTL: ttl, Proto: packet.LayerTypeRaw, Src: src, Dst: dst},
		&packet.Raw{Data: []byte("payload")})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestDeliveryAcrossChain(t *testing.T) {
	n, sched := chainNet(t)
	var got []byte
	n.Node(4).Deliver = func(nd *Node, tr *Trace, data []byte) { got = data }
	tr := n.Send(1, mkPkt(t, packet.MakeAddr(1, 5), packet.MakeAddr(4, 9), 16))
	sched.Run()
	if !tr.Delivered {
		t.Fatalf("not delivered: %+v", tr)
	}
	if got == nil {
		t.Fatal("deliver handler not invoked")
	}
	path := tr.Path()
	want := []topology.NodeID{1, 2, 3, 4}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	if tr.Latency() <= 0 {
		t.Fatal("latency should be positive")
	}
	if n.Delivered != 1 || n.Dropped != 0 {
		t.Fatalf("delivered %d, dropped %d; want 1 and 0", n.Delivered, n.Dropped)
	}
}

func TestTTLExpiry(t *testing.T) {
	n, sched := chainNet(t)
	tr := n.Send(1, mkPkt(t, packet.MakeAddr(1, 1), packet.MakeAddr(4, 1), 2))
	sched.Run()
	if tr.Delivered {
		t.Fatal("packet with ttl=2 should expire on a 3-hop path")
	}
	// The expiring node reveals itself (the ICMP time-exceeded analogue).
	if tr.DropReason != "ttl" || tr.DropNode != 3 {
		t.Fatalf("drop = %q at %d, want ttl at 3", tr.DropReason, tr.DropNode)
	}
}

func TestNoRouteDrop(t *testing.T) {
	sched := sim.NewScheduler()
	g := topology.Linear(2, sim.Millisecond)
	n := New(sched, g)
	// Node 1 has no Route.
	tr := n.Send(1, mkPkt(t, packet.MakeAddr(1, 1), packet.MakeAddr(2, 1), 8))
	sched.Run()
	if tr.Delivered || tr.DropReason != "no-route" {
		t.Fatalf("trace = %+v", tr)
	}
}

func TestBadNextHopDrop(t *testing.T) {
	sched := sim.NewScheduler()
	g := topology.Linear(3, sim.Millisecond)
	n := New(sched, g)
	n.Node(1).Route = func(dst packet.Addr, tip *packet.TIP) (topology.NodeID, bool) {
		return 3, true // not adjacent to 1
	}
	tr := n.Send(1, mkPkt(t, packet.MakeAddr(1, 1), packet.MakeAddr(3, 1), 8))
	sched.Run()
	if tr.DropReason != "bad-next-hop" {
		t.Fatalf("drop reason = %q", tr.DropReason)
	}
}

func TestMalformedDrop(t *testing.T) {
	n, sched := chainNet(t)
	tr := n.Send(1, []byte{1, 2, 3})
	sched.Run()
	if tr.DropReason != "malformed" {
		t.Fatalf("drop reason = %q", tr.DropReason)
	}
}

type dropBox struct {
	name   string
	silent bool
	hit    int
}

func (d *dropBox) Name() string { return d.name }
func (d *dropBox) Silent() bool { return d.silent }
func (d *dropBox) Process(node topology.NodeID, dir Direction, data []byte) ([]byte, Verdict) {
	d.hit++
	return nil, Drop
}

func TestMiddleboxDropVisible(t *testing.T) {
	n, sched := chainNet(t)
	fw := &dropBox{name: "fw2"}
	n.Node(2).AddMiddlebox(fw)
	tr := n.Send(1, mkPkt(t, packet.MakeAddr(1, 1), packet.MakeAddr(4, 1), 8))
	sched.Run()
	if tr.Delivered {
		t.Fatal("should be blocked")
	}
	// A disclosing device names itself and its node.
	if tr.DropReason != "blocked:fw2" || tr.DropNode != 2 {
		t.Fatalf("drop = %q at %d, want blocked:fw2 at 2", tr.DropReason, tr.DropNode)
	}
	if fw.hit != 1 {
		t.Fatalf("middlebox hit %d times", fw.hit)
	}
}

func TestMiddleboxDropSilent(t *testing.T) {
	n, sched := chainNet(t)
	n.Node(2).AddMiddlebox(&dropBox{name: "covert", silent: true})
	tr := n.Send(1, mkPkt(t, packet.MakeAddr(1, 1), packet.MakeAddr(4, 1), 8))
	sched.Run()
	if tr.DropReason != "lost" {
		t.Fatalf("silent drop leaked identity: %q", tr.DropReason)
	}
	// But the trace still shows the last node reached — path inference.
	if tr.DropNode != 2 {
		t.Fatalf("drop node = %d", tr.DropNode)
	}
}

// Each node counts the packets it delivers: the origin counts nothing,
// a transit node counts only what terminates there, and a packet a
// middlebox drops is charged to no node's deliveries.
func TestNodeCounters(t *testing.T) {
	n, sched := chainNet(t)
	n.Node(3).AddMiddlebox(&dropBox{name: "fw3"})
	toTwo := n.Send(1, mkPkt(t, packet.MakeAddr(1, 1), packet.MakeAddr(2, 1), 8))
	toFour := n.Send(1, mkPkt(t, packet.MakeAddr(1, 1), packet.MakeAddr(4, 1), 8))
	sched.Run()
	if !toTwo.Delivered {
		t.Fatalf("packet to node 2 dropped: %s", toTwo.DropReason)
	}
	// Node 2 forwarded the packet to 4 on; node 3's middlebox dropped it.
	if p := fmt.Sprint(toFour.Path()); toFour.Delivered || toFour.DropReason != "blocked:fw3" || toFour.DropNode != 3 || p != "[1 2]" {
		t.Fatalf("packet to node 4: delivered=%v reason=%q at node %d after %s, want blocked:fw3 at node 3 after [1 2]",
			toFour.Delivered, toFour.DropReason, toFour.DropNode, p)
	}
	for id := topology.NodeID(1); id <= 4; id++ {
		want := 0
		if id == 2 {
			want = 1
		}
		if got := n.Node(id).Delivered; got != want {
			t.Errorf("node %d delivered %d, want %d", id, got, want)
		}
	}
}

func TestRemoveMiddlebox(t *testing.T) {
	n, _ := chainNet(t)
	nd := n.Node(2)
	nd.AddMiddlebox(&dropBox{name: "a"})
	nd.AddMiddlebox(&dropBox{name: "b"})
	if !nd.RemoveMiddlebox("a") || len(nd.Middleboxes) != 1 {
		t.Fatal("remove failed")
	}
	if nd.RemoveMiddlebox("zzz") {
		t.Fatal("removed nonexistent middlebox")
	}
}

func TestSourceRouteHonored(t *testing.T) {
	// Diamond: 1-2-4 and 1-3-4. Default routing prefers via 2; the
	// source route forces via 3.
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
	mk := func(srcRoute *packet.SourceRouteOption) []byte {
		data, err := packet.Serialize(
			&packet.TIP{TTL: 8, Proto: packet.LayerTypeRaw,
				Src: packet.MakeAddr(1, 1), Dst: packet.MakeAddr(4, 1),
				SourceRoute: srcRoute},
			&packet.Raw{Data: []byte("x")})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	trDefault := n.Send(1, mk(nil))
	trForced := n.Send(1, mk(&packet.SourceRouteOption{Hops: []packet.Addr{packet.MakeAddr(3, 0)}}))
	sched.Run()

	if !trDefault.Delivered || !trForced.Delivered {
		t.Fatalf("deliveries: default=%v forced=%v (%s)", trDefault.Delivered, trForced.Delivered, trForced.DropReason)
	}
	if p := trDefault.Path(); p[1] != 2 {
		t.Fatalf("default path = %v, want via 2", p)
	}
	if p := trForced.Path(); p[1] != 3 {
		t.Fatalf("source-routed path = %v, want via 3", p)
	}
}

func TestSourceRouteIgnoredWithoutHonor(t *testing.T) {
	n, sched := chainNet(t)
	// Source route pointing backwards; nodes don't honor it, so the
	// packet follows normal forwarding.
	data, err := packet.Serialize(
		&packet.TIP{TTL: 8, Proto: packet.LayerTypeRaw,
			Src: packet.MakeAddr(1, 1), Dst: packet.MakeAddr(4, 1),
			SourceRoute: &packet.SourceRouteOption{Hops: []packet.Addr{packet.MakeAddr(1, 0)}}},
		&packet.Raw{Data: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	tr := n.Send(1, data)
	sched.Run()
	if !tr.Delivered {
		t.Fatalf("dropped: %s", tr.DropReason)
	}
}

// The `paid` policy is §V-A4's recommendation: a source route is
// honored only when the packet carries a payment voucher, and an unpaid
// one is ignored, the packet still forwarding by the node's own routing.
func TestSourceRouteRequiresPayment(t *testing.T) {
	n, sched := diamondNet(t)
	for id := topology.NodeID(1); id <= 4; id++ {
		useSourceRoutePolicy(t, n.Node(id), "paid")
	}
	trUnpaid := n.Send(1, srcRoutedPkt(t, false, 3))
	trPaid := n.Send(1, srcRoutedPkt(t, true, 3))
	sched.Run()
	if !trUnpaid.Delivered || !trPaid.Delivered {
		t.Fatalf("deliveries: unpaid=%v paid=%v (%s/%s)",
			trUnpaid.Delivered, trPaid.Delivered, trUnpaid.DropReason, trPaid.DropReason)
	}
	if p := trUnpaid.Path(); p[1] != 2 {
		t.Fatalf("unpaid path = %v, want default via 2", p)
	}
	if p := trPaid.Path(); p[1] != 3 {
		t.Fatalf("paid path = %v, want source-routed via 3", p)
	}
}

func TestQueueOverflow(t *testing.T) {
	n, sched := chainNet(t)
	n.LinkRate = 1e4 // very slow link: 10 KB/s
	n.MaxQueue = 10 * sim.Millisecond
	var traces []*Trace
	for i := 0; i < 50; i++ {
		traces = append(traces, n.Send(1, mkPkt(t, packet.MakeAddr(1, 1), packet.MakeAddr(2, 1), 8)))
	}
	sched.Run()
	drops := 0
	for _, tr := range traces {
		if tr.DropReason == "queue-overflow" {
			drops++
		}
	}
	if drops == 0 {
		t.Fatal("expected queue overflow drops on a saturated link")
	}
}

func TestTraceLatencyReflectsLinkDelay(t *testing.T) {
	n, sched := chainNet(t)
	tr := n.Send(1, mkPkt(t, packet.MakeAddr(1, 1), packet.MakeAddr(2, 1), 8))
	sched.Run()
	if !tr.Delivered {
		t.Fatal("not delivered")
	}
	if tr.Latency() < sim.Millisecond {
		t.Fatalf("latency %v below the 1ms link delay", tr.Latency())
	}
}

func TestUnknownNodePanics(t *testing.T) {
	n, _ := chainNet(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.Node(99)
}

type rewriteBox struct{ to packet.Addr }

func (r *rewriteBox) Name() string { return "redirector" }
func (r *rewriteBox) Silent() bool { return false }
func (r *rewriteBox) Process(node topology.NodeID, dir Direction, data []byte) ([]byte, Verdict) {
	var tip packet.TIP
	if err := tip.DecodeFrom(data); err != nil {
		return nil, Accept
	}
	if tip.Dst == r.to {
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

func TestMiddleboxTransformRedirects(t *testing.T) {
	// Node 2 redirects everything to node 3 — "connection redirection"
	// from §VI-A.
	n, sched := chainNet(t)
	n.Node(2).AddMiddlebox(&rewriteBox{to: packet.MakeAddr(3, 1)})
	delivered := map[topology.NodeID]bool{}
	for _, id := range []topology.NodeID{3, 4} {
		id := id
		n.Node(id).Deliver = func(nd *Node, tr *Trace, data []byte) { delivered[id] = true }
	}
	tr := n.Send(1, mkPkt(t, packet.MakeAddr(1, 1), packet.MakeAddr(4, 1), 8))
	sched.Run()
	if !tr.Delivered || !delivered[3] || delivered[4] {
		t.Fatalf("redirect failed: delivered=%v trace=%+v", delivered, tr)
	}
}
