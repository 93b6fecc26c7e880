package experiments

import (
	"fmt"

	"repro/internal/economics"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/routing/overlay"
	"repro/internal/routing/srcroute"
	"repro/internal/sim"
	"repro/internal/topology"
)

// E26OverlayVsIntegrated runs the comparison §V-A4 explicitly calls for:
// "Overlay architectures should be evaluated for their ability to
// isolate tussles and provide choice. A comparison is warranted between
// overlay architectures and integrated global schemes to understand how
// each balances the relative control that providers and consumers have,
// and whether economic distortion is greater in one or the other."
//
// Scenario: the provider-chosen route crosses a slow path; a faster
// alternate exists that default routing will not use. Users obtain the
// fast path three ways — not at all (baseline), by overlay relaying
// (choice without compensation), and by paid source routing (the
// integrated scheme: choice with designed value flow). Measured: the
// latency users achieve, provider compensation, and uncompensated
// transit (the economic distortion). The topology, routes and probes of
// all three designs are fixed, so the result does not depend on the seed.
func E26OverlayVsIntegrated(seed uint64) *Result {
	res := &Result{
		ID:    "E26",
		Title: "overlay vs integrated source routing (§V-A4 comparison)",
		Claim: "§V-A4: compare overlays and integrated global schemes on control balance and economic distortion",
		Columns: []string{
			"latency-ms", "user-choice", "provider-revenue", "uncompensated-bytes",
		},
	}
	const nProbes = 40
	paid, err := netsim.CompileSourceRoutePolicy("paid")
	if err != nil {
		panic(err)
	}
	for _, design := range []string{"provider-default", "overlay", "srcroute+payment"} {
		// Diamond: 1 -slow- 2 -slow- 4 and 1 -fast- 3 -fast- 4; default
		// routing prefers via 2 (the provider's business choice).
		sched := sim.NewScheduler()
		g := topology.NewGraph()
		for i := 1; i <= 4; i++ {
			g.AddNode(topology.NodeID(i), topology.Transit, 1)
		}
		g.AddLink(1, 2, topology.PeerOf, 20*sim.Millisecond, 1)
		g.AddLink(2, 4, topology.PeerOf, 20*sim.Millisecond, 1)
		g.AddLink(1, 3, topology.PeerOf, 2*sim.Millisecond, 5)
		g.AddLink(3, 4, topology.PeerOf, 2*sim.Millisecond, 5)
		net := netsim.New(sched, g)
		routes := map[topology.NodeID]map[uint16]topology.NodeID{
			1: {2: 2, 3: 3, 4: 2}, // default via the slow path
			2: {1: 1, 4: 4, 3: 1},
			3: {1: 1, 4: 4, 2: 1},
			4: {2: 2, 3: 3, 1: 2},
		}
		for id, tbl := range routes {
			tbl := tbl
			nd := net.Node(id)
			nd.Route = func(dst packet.Addr, tip *packet.TIP) (topology.NodeID, bool) {
				nh, ok := tbl[dst.Provider()]
				return nh, ok
			}
			if design == "srcroute+payment" {
				nd.HonorSourceRoutes = true
				nd.UseSourceRoutePolicy(paid)
			}
		}
		ledger := economics.NewLedger(map[string]float64{"users": 1e6, "providers": 0})
		mesh := overlay.NewMesh() // members 1, 3, 4
		mesh.InstallRelay(net, 3)
		payerKey := []byte("user-key")

		var latency sim.Series
		choiceExercised := 0
		want := srcroute.Candidate{Path: []topology.NodeID{1, 3, 4}}
		for p := 0; p < nProbes; p++ {
			var tr *netsim.Trace
			switch design {
			case "overlay":
				// Relay via 3: the inner packet is re-sourced at the
				// relay (proxy semantics).
				inner, err := packet.Serialize(
					&packet.TIP{TTL: 16, Proto: packet.LayerTypeRaw,
						Src: packet.MakeAddr(3, 1), Dst: packet.MakeAddr(4, 1)},
					&packet.Raw{Data: []byte("payload")})
				if err != nil {
					panic(err)
				}
				enc, err := overlay.Encapsulate(packet.MakeAddr(1, 1), packet.MakeAddr(3, 0), 16, inner)
				if err != nil {
					panic(err)
				}
				tr = net.Send(1, enc)
			case "srcroute+payment":
				tip := &packet.TIP{TTL: 16, Proto: packet.LayerTypeRaw,
					Src: packet.MakeAddr(1, 1), Dst: packet.MakeAddr(4, 1),
					SourceRoute: want.Option()}
				amount := srcroute.WithPayment(tip, want, payerKey, uint32(p))
				if err := ledger.Transfer("users", "providers", float64(amount)/1000); err != nil {
					panic(err)
				}
				data, err := packet.Serialize(tip, &packet.Raw{Data: []byte("payload")})
				if err != nil {
					panic(err)
				}
				tr = net.Send(1, data)
			default:
				data, err := packet.Serialize(
					&packet.TIP{TTL: 16, Proto: packet.LayerTypeRaw,
						Src: packet.MakeAddr(1, 1), Dst: packet.MakeAddr(4, 1)},
					&packet.Raw{Data: []byte("payload")})
				if err != nil {
					panic(err)
				}
				tr = net.Send(1, data)
			}
			sched.Run()
			if !tr.Delivered {
				continue
			}
			latency.Add(tr.Latency().Millis())
			onFast := false
			for _, n := range tr.Path() {
				if n == 3 {
					onFast = true
				}
			}
			if onFast && design != "provider-default" {
				choiceExercised++
			}
		}
		if !ledger.Conserved() {
			panic("E26: ledger conservation violated")
		}
		res.AddRow(design,
			latency.Mean(),
			ratio(choiceExercised, nProbes),
			ledger.Balance("providers"),
			float64(mesh.UncompensatedTransit()))
	}
	res.Finding = fmt.Sprintf(
		"both schemes restore the user's fast path (latency %.1fms/%.1fms vs the provider default %.1fms); the overlay does it with %.0f bytes of uncompensated transit and zero provider revenue, the integrated scheme pays providers %.2f with no distortion — the §V-A4 comparison resolved: economic distortion is greater in the overlay",
		res.MustGet("overlay", "latency-ms"),
		res.MustGet("srcroute+payment", "latency-ms"),
		res.MustGet("provider-default", "latency-ms"),
		res.MustGet("overlay", "uncompensated-bytes"),
		res.MustGet("srcroute+payment", "provider-revenue"))
	return res
}
