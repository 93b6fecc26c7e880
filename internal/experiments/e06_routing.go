package experiments

import (
	"fmt"

	"repro/internal/economics"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/routing/pathvector"
	"repro/internal/routing/srcroute"
	"repro/internal/sim"
	"repro/internal/topology"
)

// E6RoutingControl tests §V-A4: provider-controlled routing (the BGP
// outcome) gives the user no path choice; user source routing restores
// choice, but providers only honor it when the design "incorporates a
// recognition of the need for payment". The experiment measures, across
// stub pairs on a generated internetwork: how many pairs have an
// alternate path the user can actually exercise, and how much voucher
// revenue flows to providers when payment is required.
func E6RoutingControl(seed uint64) *Result { return e6RoutingControl(seed, nil) }

func e6RoutingControl(seed uint64, reg *obs.Registry) *Result {
	res := &Result{
		ID:    "E6",
		Title: "provider vs user control of inter-domain routes",
		Claim: "§V-A4: support user source routing, with payment, so consumers can exercise provider-level choice",
		Columns: []string{
			"pairs", "choice-exercised", "delivery", "voucher-revenue",
		},
	}
	configs := []struct {
		label     string
		honor     bool
		attachPay bool
	}{
		{"provider-control", false, false},
		{"srcroute unpaid", true, false},
		{"srcroute paid", true, true},
	}
	paid, err := netsim.CompileSourceRoutePolicy("paid")
	if err != nil {
		panic(err)
	}
	for _, cfg := range configs {
		rng := sim.NewRNG(seed)
		g := topology.GenerateHierarchy(topology.DefaultHierarchy(), rng)
		sched := sim.NewScheduler()
		sched.AttachObs(reg)
		net := netsim.New(sched, g)
		net.AttachObs(reg, nil)
		pv := pathvector.New(g)
		pv.AttachObs(reg)
		if err := pv.Converge(); err != nil {
			panic(err)
		}
		for _, id := range g.NodeIDs() {
			nd := net.Node(id)
			nd.Route = pv.RouteFunc(id)
			if cfg.honor {
				nd.HonorSourceRoutes = true
				nd.UseSourceRoutePolicy(paid)
			}
		}
		ledger := economics.NewLedger(map[string]float64{"users": 1e6})
		payerKey := []byte("user-master-key")

		stubs := g.Stubs()
		pairs, exercised, delivered := 0, 0, 0
		var voucherRevenue float64
		var traces []*netsim.Trace
		var wants []srcroute.Candidate
		var defaults [][]topology.NodeID
		for i := 0; i < len(stubs); i++ {
			for j := i + 1; j < len(stubs); j++ {
				src, dst := stubs[i], stubs[j]
				pairs++
				defaultPath := pv.Path(src, dst)
				cands := srcroute.Discover(g, src, dst, 5, 7)
				// The user wants an alternate path: the best candidate
				// that differs from the provider-chosen default (maybe
				// the default is congested, or they distrust one of its
				// providers).
				var want *srcroute.Candidate
				for k := range cands {
					if !samePath(cands[k].Path, defaultPath) {
						want = &cands[k]
						break
					}
				}
				if want == nil {
					continue
				}
				tip := &packet.TIP{
					TTL: 32, Proto: packet.LayerTypeRaw,
					Src: packet.MakeAddr(uint16(src), 1), Dst: packet.MakeAddr(uint16(dst), 1),
					SourceRoute: want.Option(),
				}
				if cfg.attachPay {
					amount := srcroute.WithPayment(tip, *want, payerKey, uint32(pairs))
					if err := ledger.Transfer("users", "providers", float64(amount)/1000); err == nil {
						voucherRevenue += float64(amount) / 1000
					}
				}
				data, err := packet.Serialize(tip, &packet.Raw{Data: []byte("probe")})
				if err != nil {
					panic(err)
				}
				traces = append(traces, net.Send(src, data))
				wants = append(wants, *want)
				defaults = append(defaults, defaultPath)
			}
		}
		sched.Run()
		for k, tr := range traces {
			if tr.Delivered {
				delivered++
				// Choice counts as exercised only if the packet followed
				// the requested alternative AND left the default path —
				// "how the user knows that the traffic actually took the
				// desired route".
				if wants[k].Verify(tr.Path()) && !samePath(tr.Path(), defaults[k]) {
					exercised++
				}
			}
		}
		if !ledger.Conserved() {
			panic("E6: ledger conservation violated")
		}
		res.AddRow(cfg.label,
			float64(pairs),
			ratio(exercised, pairs),
			ratio(delivered, len(traces)),
			voucherRevenue)
	}
	res.Finding = fmt.Sprintf(
		"under provider control users exercise alternate-path choice on %.0f%% of pairs; with paid source routing %.0f%% (unpaid source routes are ignored: %.0f%%), and %.1f units of voucher revenue flow to providers",
		res.MustGet("provider-control", "choice-exercised")*100,
		res.MustGet("srcroute paid", "choice-exercised")*100,
		res.MustGet("srcroute unpaid", "choice-exercised")*100,
		res.MustGet("srcroute paid", "voucher-revenue"))
	return res
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func samePath(a, b []topology.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
