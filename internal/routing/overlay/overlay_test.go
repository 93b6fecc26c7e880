package overlay

import (
	"reflect"
	"testing"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
)

func TestRouteDirectWhenAvailable(t *testing.T) {
	m := NewMesh()
	m.Observe(1, 3, 10*sim.Millisecond)
	m.Observe(1, 2, 5*sim.Millisecond)
	m.Observe(2, 3, 20*sim.Millisecond)
	p := m.Route(1, 3)
	if len(p) != 2 || p[0] != 1 || p[1] != 3 {
		t.Fatalf("route = %v, want direct", p)
	}
}

func TestRouteRelaysAroundLoss(t *testing.T) {
	m := NewMesh()
	m.Observe(1, 2, 5*sim.Millisecond)
	m.Observe(2, 3, 5*sim.Millisecond)
	// 1->3 direct is unusable (never observed / lost).
	p := m.Route(1, 3)
	if len(p) != 3 || p[1] != 2 {
		t.Fatalf("route = %v, want relay via 2", p)
	}
}

func TestRouteRelaysWhenFaster(t *testing.T) {
	m := NewMesh()
	m.Observe(1, 3, 50*sim.Millisecond) // congested direct path
	m.Observe(1, 2, 5*sim.Millisecond)
	m.Observe(2, 3, 5*sim.Millisecond)
	p := m.Route(1, 3)
	if len(p) != 3 || p[1] != 2 {
		t.Fatalf("route = %v, want faster relay via 2", p)
	}
}

// Four equal-latency relays tie. The search settles the lowest NodeID
// first, so every call must take relay 2, whatever order the mesh's
// latency map yields the relays in.
func TestRouteTieIsDeterministic(t *testing.T) {
	m := NewMesh()
	for _, relay := range []topology.NodeID{2, 3, 5, 6} {
		m.Observe(1, relay, sim.Millisecond)
		m.Observe(relay, 4, sim.Millisecond)
	}
	want := []topology.NodeID{1, 2, 4}
	for i := 0; i < 100; i++ {
		if p := m.Route(1, 4); !reflect.DeepEqual(p, want) {
			t.Fatalf("call %d: route = %v, want %v", i, p, want)
		}
	}
}

func TestRouteUnreachable(t *testing.T) {
	m := NewMesh()
	m.Observe(1, 2, sim.Millisecond)
	if p := m.Route(1, 3); p != nil {
		t.Fatalf("route = %v, want nil", p)
	}
}

// TestRelayEndToEnd exercises the full encapsulation path in the
// simulator: node 2 blocks traffic 1->4 (a restrictive underlay), and the
// overlay relays via member 3 to restore connectivity — the §V-A4 tussle
// tool in action.
func TestRelayEndToEnd(t *testing.T) {
	sched := sim.NewScheduler()
	g := topology.NewGraph()
	for i := 1; i <= 4; i++ {
		g.AddNode(topology.NodeID(i), topology.Transit, 1)
	}
	// 1-2-4 and 1-3-4.
	g.AddLink(1, 2, topology.PeerOf, sim.Millisecond, 1)
	g.AddLink(2, 4, topology.PeerOf, sim.Millisecond, 1)
	g.AddLink(1, 3, topology.PeerOf, sim.Millisecond, 2)
	g.AddLink(3, 4, topology.PeerOf, sim.Millisecond, 2)
	n := netsim.New(sched, g)
	routes := map[topology.NodeID]map[uint16]topology.NodeID{
		1: {2: 2, 3: 3, 4: 2}, // underlay prefers 1-2-4
		2: {1: 1, 4: 4, 3: 1},
		3: {1: 1, 4: 4, 2: 1},
		4: {2: 2, 3: 3, 1: 2},
	}
	for id, tbl := range routes {
		tbl := tbl
		n.Node(id).Route = func(dst packet.Addr, tip *packet.TIP) (topology.NodeID, bool) {
			nh, ok := tbl[dst.Provider()]
			return nh, ok
		}
	}
	// Node 2 drops 1->4 traffic (policy restriction).
	n.Node(2).AddMiddlebox(blocker{})

	inner, err := packet.Serialize(
		&packet.TIP{TTL: 16, Proto: packet.LayerTypeRaw, Src: packet.MakeAddr(1, 1), Dst: packet.MakeAddr(4, 1)},
		&packet.Raw{Data: []byte("relayed")})
	if err != nil {
		t.Fatal(err)
	}

	// Direct attempt dies at node 2.
	direct := make([]byte, len(inner))
	copy(direct, inner)
	trDirect := n.Send(1, direct)
	sched.Run()
	if trDirect.Delivered {
		t.Fatal("direct path should be blocked")
	}

	// Overlay relays via member 3.
	m := NewMesh()
	m.InstallRelay(n, 3)
	var got []byte
	n.Node(4).Deliver = func(nd *netsim.Node, tr *netsim.Trace, data []byte) { got = data }
	enc, err := Encapsulate(packet.MakeAddr(1, 1), packet.MakeAddr(3, 0), 16, inner)
	if err != nil {
		t.Fatal(err)
	}
	n.Send(1, enc)
	sched.Run()
	if got == nil {
		t.Fatal("relayed packet not delivered")
	}
	p := packet.NewPacket(got, packet.LayerTypeTIP)
	raw, _ := p.Layer(packet.LayerTypeRaw).(*packet.Raw)
	if raw == nil || string(raw.Data) != "relayed" {
		t.Fatalf("inner payload = %v", p)
	}
	if m.UncompensatedTransit() == 0 {
		t.Fatal("relayed bytes should be accounted as uncompensated transit")
	}
}

// blocker drops packets from provider 1 to provider 4.
type blocker struct{}

func (blocker) Name() string { return "policy-block" }
func (blocker) Silent() bool { return false }
func (blocker) Process(node topology.NodeID, dir netsim.Direction, data []byte) ([]byte, netsim.Verdict) {
	var tip packet.TIP
	if err := tip.DecodeFrom(data); err != nil {
		return nil, netsim.Accept
	}
	if tip.Src.Provider() == 1 && tip.Dst.Provider() == 4 {
		return nil, netsim.Drop
	}
	return nil, netsim.Accept
}

func TestRelayPassthroughNonTunnel(t *testing.T) {
	sched := sim.NewScheduler()
	g := topology.Linear(2, sim.Millisecond)
	n := netsim.New(sched, g)
	n.Node(1).Route = func(dst packet.Addr, tip *packet.TIP) (topology.NodeID, bool) { return 2, true }
	m := NewMesh()
	delivered := false
	n.Node(2).Deliver = func(nd *netsim.Node, tr *netsim.Trace, data []byte) { delivered = true }
	m.InstallRelay(n, 2) // wraps the existing handler
	data, err := packet.Serialize(
		&packet.TIP{TTL: 4, Proto: packet.LayerTypeRaw, Src: packet.MakeAddr(1, 1), Dst: packet.MakeAddr(2, 1)},
		&packet.Raw{Data: []byte("plain")})
	if err != nil {
		t.Fatal(err)
	}
	n.Send(1, data)
	sched.Run()
	if !delivered {
		t.Fatal("non-tunnel traffic should fall through to the original handler")
	}
	if m.RelayedBytes != 0 {
		t.Fatal("plain traffic wrongly counted as relayed")
	}
}
