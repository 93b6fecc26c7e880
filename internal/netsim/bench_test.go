package netsim

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/routing/pathvector"
	"repro/internal/sim"
	"repro/internal/topology"
)

// End-to-end forwarding cost across a realistic internetwork.
func BenchmarkSendAcrossHierarchy(b *testing.B) {
	rng := sim.NewRNG(1)
	g := topology.GenerateHierarchy(topology.DefaultHierarchy(), rng)
	sched := sim.NewScheduler()
	n := New(sched, g)
	pv := pathvector.New(g)
	if err := pv.Converge(); err != nil {
		b.Fatal(err)
	}
	for _, id := range g.NodeIDs() {
		n.Node(id).Route = pv.RouteFunc(id)
	}
	stubs := g.Stubs()
	src, dst := stubs[0], stubs[len(stubs)-1]
	data, err := packet.Serialize(
		&packet.TIP{TTL: 32, Proto: packet.LayerTypeRaw,
			Src: packet.MakeAddr(uint16(src), 1), Dst: packet.MakeAddr(uint16(dst), 1)},
		&packet.Raw{Data: make([]byte, 512)})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := make([]byte, len(data))
		copy(cp, data)
		tr := n.Send(src, cp)
		sched.Run()
		if !tr.Delivered {
			b.Fatalf("drop: %s", tr.DropReason)
		}
	}
}
