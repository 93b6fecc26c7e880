// Overlay routing: the §V-A4 overlay tussle end to end. A provider
// blocks certain stub pairs by policy; the affected users build a RON-
// style overlay mesh, relay around the restriction through a willing
// member, verify delivery, and the example accounts for the economic
// distortion — transit the relaying members' providers were never paid
// to carry.
//
// Run with: go run ./examples/overlay_routing
package main

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/routing/overlay"
	"repro/internal/sim"
	"repro/internal/topology"
)

// policyBlock drops traffic from provider 1 delivered at provider 4.
type policyBlock struct{}

func (policyBlock) Name() string { return "provider-policy" }
func (policyBlock) Silent() bool { return true } // no error report: the §VI-A diagnostic gap
func (policyBlock) Process(node topology.NodeID, dir netsim.Direction, data []byte) ([]byte, netsim.Verdict) {
	if dir != netsim.Delivering {
		return nil, netsim.Accept
	}
	var tip packet.TIP
	if err := tip.DecodeFrom(data); err != nil {
		return nil, netsim.Accept
	}
	if tip.Src.Provider() == 1 {
		return nil, netsim.Drop
	}
	return nil, netsim.Accept
}

func main() {
	// Diamond topology: 1 and 4 are the endpoints; 2 and 3 are transits;
	// 3 is also an overlay member willing to relay.
	sched := sim.NewScheduler()
	g := topology.NewGraph()
	for i := 1; i <= 4; i++ {
		g.AddNode(topology.NodeID(i), topology.Transit, 1)
	}
	g.AddLink(1, 2, topology.PeerOf, 2*sim.Millisecond, 1)
	g.AddLink(2, 4, topology.PeerOf, 2*sim.Millisecond, 1)
	g.AddLink(1, 3, topology.PeerOf, 3*sim.Millisecond, 2)
	g.AddLink(3, 4, topology.PeerOf, 3*sim.Millisecond, 2)
	net := netsim.New(sched, g)
	routes := map[topology.NodeID]map[uint16]topology.NodeID{
		1: {2: 2, 3: 3, 4: 2},
		2: {1: 1, 4: 4, 3: 1},
		3: {1: 1, 4: 4, 2: 1},
		4: {2: 2, 3: 3, 1: 2},
	}
	for id, tbl := range routes {
		tbl := tbl
		net.Node(id).Route = func(dst packet.Addr, tip *packet.TIP) (topology.NodeID, bool) {
			nh, ok := tbl[dst.Provider()]
			return nh, ok
		}
	}
	// Node 4's provider blocks traffic sourced at provider 1, silently.
	net.Node(4).AddMiddlebox(policyBlock{})

	mk := func(src topology.NodeID) []byte {
		data, err := packet.Serialize(
			&packet.TIP{TTL: 16, Proto: packet.LayerTypeRaw,
				Src: packet.MakeAddr(uint16(src), 1), Dst: packet.MakeAddr(4, 1)},
			&packet.Raw{Data: []byte("overlay payload")})
		if err != nil {
			panic(err)
		}
		return data
	}

	fmt.Println("direct attempt 1 -> 4:")
	tr := net.Send(1, mk(1))
	sched.Run()
	fmt.Printf("  delivered=%v dropReason=%q dropNode=%d\n", tr.Delivered, tr.DropReason, tr.DropNode)
	fmt.Println("  (the blocker is silent: the trace says only where the packet died — fault")
	fmt.Println("   isolation by path inference, exactly the §VI-A diagnostic gap)")

	// The overlay: members 1, 3, 4 measure each other and route around.
	mesh := overlay.NewMesh() // members 1, 3, 4
	mesh.InstallRelay(net, 3)
	var got []byte
	prior := net.Node(4).Deliver
	net.Node(4).Deliver = func(n *netsim.Node, t *netsim.Trace, data []byte) {
		got = data
		if prior != nil {
			prior(n, t, data)
		}
	}
	// Probes established: 1->3 works, 3->4 works, 1->4 does not.
	mesh.Observe(1, 3, 3*sim.Millisecond)
	mesh.Observe(3, 4, 3*sim.Millisecond)
	path := mesh.Route(1, 4)
	fmt.Printf("\noverlay route: %v\n", path)

	// Relay via 3: the inner packet is re-sourced at the relay so the
	// destination policy sees provider 3, not provider 1.
	inner := mk(3)
	enc, err := overlay.Encapsulate(packet.MakeAddr(1, 1), packet.MakeAddr(3, 0), 16, inner)
	if err != nil {
		panic(err)
	}
	net.Send(1, enc)
	sched.Run()
	if got != nil {
		p := packet.NewPacket(got, packet.LayerTypeTIP)
		raw, _ := p.Layer(packet.LayerTypeRaw).(*packet.Raw)
		fmt.Printf("relayed delivery succeeded: payload %q\n", raw.Data)
	} else {
		fmt.Println("relayed delivery failed")
	}
	fmt.Printf("economic distortion: %d bytes of uncompensated transit through node 3's providers\n",
		mesh.UncompensatedTransit())
	fmt.Println("(\"this kind of overlay network is a tool in the tussle, certainly\" — §V-A4)")
}
