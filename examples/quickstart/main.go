// Quickstart: build a small internetwork, route it two ways, send a
// tussle-laden packet, and run the paper's two design-principle
// analyzers over the result.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/routing/pathvector"
	"repro/internal/routing/srcroute"
	"repro/internal/sim"
	"repro/internal/topology"
)

func main() {
	// 1. A deterministic internetwork: tier-1 clique, regional ISPs,
	// stub edge networks, with explicit business relationships.
	rng := sim.NewRNG(7)
	g := topology.GenerateHierarchy(topology.DefaultHierarchy(), rng)
	fmt.Printf("generated %d ASes (%d stubs), %d links\n",
		len(g.Nodes), len(g.Stubs()), len(g.Links))

	// 2. Provider-controlled routing: Gao–Rexford path vector.
	pv := pathvector.New(g)
	if err := pv.Converge(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	stubs := g.Stubs()
	src, dst := stubs[0], stubs[len(stubs)-1]
	fmt.Printf("provider-chosen path %d->%d: %v (valley violations: %d)\n",
		src, dst, pv.Path(src, dst), pv.CheckGaoRexford())

	// 3. The user discovers alternatives — design for choice.
	cands := srcroute.Discover(g, src, dst, 3, 7)
	fmt.Printf("user-discovered candidate paths: %d\n", len(cands))
	for i, c := range cands {
		fmt.Printf("  #%d %v  (latency %v)\n", i, c.Path, c.Latency)
	}

	// 4. Send a packet carrying the user's choice and a payment voucher
	// (value must flow, §IV-C) through the simulator.
	paidOnly, err := netsim.CompileSourceRoutePolicy("paid")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sched := sim.NewScheduler()
	net := netsim.New(sched, g)
	for _, id := range g.NodeIDs() {
		nd := net.Node(id)
		nd.Route = pv.RouteFunc(id)
		nd.HonorSourceRoutes = true
		nd.UseSourceRoutePolicy(paidOnly)
	}
	want := cands[len(cands)-1]
	tip := &packet.TIP{
		TTL: 32, Proto: packet.LayerTypeRaw,
		Src: packet.MakeAddr(uint16(src), 1), Dst: packet.MakeAddr(uint16(dst), 1),
		SourceRoute: want.Option(),
		Identity:    &packet.IdentityOption{Scheme: packet.IdentityCertified, ID: []byte("alice")},
	}
	paid := srcroute.WithPayment(tip, want, []byte("alice-key"), 1)
	data, err := packet.Serialize(tip, &packet.Raw{Data: []byte("hello tussle")})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tr := net.Send(src, data)
	sched.Run()
	fmt.Printf("sent with %dm voucher: delivered=%v path=%v latency=%v\n",
		paid, tr.Delivered, tr.Path(), tr.Latency())
	fmt.Printf("requested route honored: %v\n", want.Verify(tr.Path()))

	// 5. Run the principle analyzers over this design.
	design := &core.Design{
		Name: "tip-internetwork",
		Choices: []core.ChoicePoint{
			{Chooser: core.User, Alternatives: len(cands), Visible: true, CostExposed: true}, // source-route
			{Chooser: core.User, Alternatives: 4, Visible: true, CostExposed: true},          // tos-class
			{Chooser: core.ISP, Alternatives: 2, Visible: false, CostExposed: true},          // export-policy
		},
		Mechanisms: []*core.Mechanism{
			{Name: "tos-bits", Visible: true},
			{Name: "source-routing", Visible: true},
			{Name: "payment-voucher", Visible: true},
		},
	}
	choice := core.AnalyzeChoice(design)
	iso := core.AnalyzeIsolation(design)
	fmt.Printf("design-for-choice: user holds %.1f bits, isp %.1f bits (balance %+.1f)\n",
		choice.BitsByKind[core.User], choice.BitsByKind[core.ISP], core.ChoiceBalance(design))
	fmt.Printf("tussle isolation score: %.2f (1.0 = perfectly modularized)\n", iso.IsolationScore())
}
