package experiments

import (
	"fmt"

	"repro/internal/gametheory"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/routing/linkstate"
	"repro/internal/routing/overlay"
	"repro/internal/routing/pathvector"
	"repro/internal/sim"
	"repro/internal/topology"
)

// E14Overlay tests §V-A4's overlay observation: overlays restore user
// choice against restrictive underlay routing ("a tool in the tussle,
// certainly") but create economic distortion — relays make providers
// carry traffic they were never compensated for.
func E14Overlay(seed uint64) *Result {
	res := &Result{
		ID:    "E14",
		Title: "overlays vs restrictive underlay routing",
		Claim: "§V-A4: overlay networks get around provider-selected routing, at the price of economic distortion",
		Columns: []string{
			"reachability", "uncompensated-bytes",
		},
	}
	for _, cfg := range []string{"underlay-only", "with-overlay"} {
		for _, blockFrac := range []float64{0.2, 0.4} {
			rng := sim.NewRNG(seed)
			g := topology.GenerateHierarchy(topology.DefaultHierarchy(), rng)
			sched := sim.NewScheduler()
			net := netsim.New(sched, g)
			pv := pathvector.New(g)
			if err := pv.Converge(); err != nil {
				panic(err)
			}
			for _, id := range g.NodeIDs() {
				net.Node(id).Route = pv.RouteFunc(id)
			}
			stubs := g.Stubs()
			// Providers restrict: a fraction of stub pairs are blocked
			// by policy at the destination's provider.
			blocked := map[[2]topology.NodeID]bool{}
			for i := 0; i < len(stubs); i++ {
				for j := 0; j < len(stubs); j++ {
					if i != j && rng.Bool(blockFrac) {
						blocked[[2]topology.NodeID{stubs[i], stubs[j]}] = true
					}
				}
			}
			for _, id := range g.NodeIDs() {
				id := id
				net.Node(id).AddMiddlebox(pairBlocker{blocked: blocked})
			}
			mesh := overlay.NewMesh()
			for _, s := range stubs {
				mesh.InstallRelay(net, s)
			}
			// Phase 1: probe all pairs directly; record observations.
			type probe struct {
				src, dst topology.NodeID
				tr       *netsim.Trace
			}
			var probes []probe
			mkData := func(src, dst topology.NodeID) []byte {
				data, err := packet.Serialize(
					&packet.TIP{TTL: 32, Proto: packet.LayerTypeRaw,
						Src: packet.MakeAddr(uint16(src), 1), Dst: packet.MakeAddr(uint16(dst), 1)},
					&packet.Raw{Data: []byte("overlay-probe")})
				if err != nil {
					panic(err)
				}
				return data
			}
			for _, s := range stubs {
				for _, d := range stubs {
					if s != d {
						probes = append(probes, probe{s, d, net.Send(s, mkData(s, d))})
					}
				}
			}
			sched.Run()
			reachable := map[[2]topology.NodeID]bool{}
			for _, p := range probes {
				if p.tr.Delivered {
					mesh.Observe(p.src, p.dst, p.tr.Latency())
					reachable[[2]topology.NodeID{p.src, p.dst}] = true
				}
			}
			// Phase 2: for unreachable pairs, try the overlay (if
			// enabled): route via mesh, send through the first relay.
			total, ok := 0, 0
			for _, s := range stubs {
				for _, d := range stubs {
					if s == d {
						continue
					}
					total++
					if reachable[[2]topology.NodeID{s, d}] {
						ok++
						continue
					}
					if cfg != "with-overlay" {
						continue
					}
					path := mesh.Route(s, d)
					if len(path) < 3 {
						continue
					}
					relay := path[1]
					// The relay proxies: the inner packet it re-injects
					// is sourced from the relay, so the destination's
					// pair policy sees (relay, d), which phase 1
					// observed to be deliverable.
					inner := mkData(relay, d)
					enc, err := overlay.Encapsulate(packet.MakeAddr(uint16(s), 1), packet.MakeAddr(uint16(relay), 0), 32, inner)
					if err != nil {
						panic(err)
					}
					before := net.Node(d).Delivered
					net.Send(s, enc)
					sched.Run()
					if net.Node(d).Delivered > before {
						ok++
					}
				}
			}
			res.AddRow(fmt.Sprintf("%s block=%.0f%%", cfg, blockFrac*100),
				ratio(ok, total), float64(mesh.UncompensatedTransit()))
		}
	}
	res.Finding = fmt.Sprintf(
		"at 40%% pair blocking the overlay lifts reachability from %.0f%% to %.0f%%, while shifting %.0f bytes onto uncompensated transit",
		res.MustGet("underlay-only block=40%", "reachability")*100,
		res.MustGet("with-overlay block=40%", "reachability")*100,
		res.MustGet("with-overlay block=40%", "uncompensated-bytes"))
	return res
}

// pairBlocker drops traffic between configured (src, dst) provider pairs
// at the destination: the provider-policy restriction overlays evade.
type pairBlocker struct {
	blocked map[[2]topology.NodeID]bool
}

// Name implements netsim.Middlebox.
func (pairBlocker) Name() string { return "pair-policy" }

// Silent implements netsim.Middlebox.
func (pairBlocker) Silent() bool { return false }

// Process implements netsim.Middlebox.
func (b pairBlocker) Process(node topology.NodeID, dir netsim.Direction, data []byte) ([]byte, netsim.Verdict) {
	if dir != netsim.Delivering {
		return nil, netsim.Accept
	}
	var tip packet.TIP
	if err := tip.DecodeFrom(data); err != nil {
		return nil, netsim.Accept
	}
	// Tunnelled traffic is classified by its outer header only — the
	// evasion works because the relay looks like an ordinary endpoint.
	key := [2]topology.NodeID{topology.NodeID(tip.Src.Provider()), topology.NodeID(tip.Dst.Provider())}
	if b.blocked[key] {
		return nil, netsim.Drop
	}
	return nil, netsim.Accept
}

// E15Multicast runs the footnote-19 exercise ("the case study of the
// failure to deploy multicast is left as an exercise for the reader"):
// multicast differs from QoS in needing *coordinated* deployment — its
// value is super-linear in the number of deployed providers — so it is a
// stag hunt, and even with value flow and consumer choice the risky
// cooperative equilibrium loses to the safe status quo unless enough
// providers already deployed.
func E15Multicast(seed uint64) *Result {
	res := &Result{
		ID:    "E15",
		Title: "multicast deployment (fn.19 exercise): a stag hunt",
		Claim: "§VII fn.19: multicast failed even harder than QoS; coordination requirements make deployment a stag hunt that defaults to the status quo",
		Columns: []string{
			"final-deploy-share",
		},
	}
	// Deployment as replicator dynamics over a symmetric 2-strategy
	// game: strategy 0 = deploy multicast, 1 = status quo. Payoffs for
	// deploying depend on the share of others deploying (network
	// effect); the 2x2 payoff matrix encodes payoff against each
	// opponent type.
	cases := []struct {
		label string
		// benefit when paired with another deployer; cost always paid.
		coopBenefit, cost float64
		initialShare      float64
	}{
		{"no-value-flow seed=10%", 2.0, 3.0, 0.10}, // cost exceeds even mutual benefit
		{"value-flow seed=10%", 5.0, 3.0, 0.10},    // profitable if others deploy — but few have
		{"value-flow seed=75%", 5.0, 3.0, 0.75},    // past the 60% tipping point
	}
	for _, c := range cases {
		a := [][]float64{
			{c.coopBenefit - c.cost, -c.cost}, // deploy vs (deploy, not)
			{0, 0},                            // status quo
		}
		x := gametheory.Replicator(a, []float64{c.initialShare, 1 - c.initialShare}, 3000)
		res.AddRow(c.label, x[0])
	}
	res.Finding = fmt.Sprintf(
		"multicast deployment dies from 10%% seeding even with value flow (share → %.2f) because the coordination threshold is unmet; only past the tipping point does it take off (→ %.2f) — matching the historical failure",
		res.MustGet("value-flow seed=10%", "final-deploy-share"),
		res.MustGet("value-flow seed=75%", "final-deploy-share"))
	return res
}

// E16Visibility tests §IV-C: a link-state protocol exposes every
// operator's cost choices to all, while a path-vector protocol reveals
// only chosen paths — "it matters if choices and the consequence of
// choices are visible."
func E16Visibility(seed uint64) *Result {
	res := &Result{
		ID:    "E16",
		Title: "visibility of routing choices: link-state vs path-vector",
		Claim: "§IV-C: a link-state protocol requires that everyone export link costs; a path vector protocol makes internal choices harder to see",
		Columns: []string{
			"choices-visible", "reasons-visible", "change-observable",
		},
	}
	rng := sim.NewRNG(seed)
	g := topology.GenerateHierarchy(topology.DefaultHierarchy(), rng)

	// Link-state: the full cost database is public.
	db := linkstate.NewDatabase(g)
	lsVisible := float64(db.VisibleChoices())
	// A cost change on one link: every node observes it (database
	// flooding) — observable fraction 1.
	res.AddRow("link-state", lsVisible, 1, 1)

	// Path-vector: only chosen paths are visible, no costs/preferences.
	pv := pathvector.New(g)
	if err := pv.Converge(); err != nil {
		panic(err)
	}
	pvVisible := float64(pv.VisibleChoices())
	// An internal preference change is observable only where it flips a
	// chosen path. Flip one stub's preferred upstream and count RIB
	// entries that changed network-wide.
	stub := g.Stubs()[0]
	providers := g.Providers(stub)
	changed := 0.0
	totalEntries := 0.0
	if len(providers) > 1 {
		pv2 := pathvector.New(g)
		pv2.Prefer[[2]topology.NodeID{stub, g.NodeIDs()[0]}] = providers[1]
		if err := pv2.Converge(); err != nil {
			panic(err)
		}
		for _, n := range g.NodeIDs() {
			for _, d := range g.NodeIDs() {
				if n == d {
					continue
				}
				totalEntries++
				p1 := pv.Path(n, d)
				p2 := pv2.Path(n, d)
				if len(p1) != len(p2) {
					changed++
					continue
				}
				for k := range p1 {
					if p1[k] != p2[k] {
						changed++
						break
					}
				}
			}
		}
	}
	obs := 0.0
	if totalEntries > 0 {
		obs = changed / totalEntries
	}
	res.AddRow("path-vector", pvVisible, 0, obs)
	res.Finding = fmt.Sprintf(
		"link-state exposes %0.f directed cost choices with reasons, and any change is globally observable; path-vector exposes %0.f chosen paths with no reasons, and an internal preference change surfaces in only %.1f%% of observable routes",
		lsVisible, pvVisible, obs*100)
	return res
}
