package experiments

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/economics"
	"repro/internal/middlebox"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/routing/pathvector"
	"repro/internal/sim"
	"repro/internal/topology"
)

// E9EndToEnd tests the §VI-A end-to-end analysis: in-network features
// (firewalls that permit only known applications, caches for the mature
// web) help the mature application but (a) block new applications, which
// "must launch incrementally" through transparent carriage, and (b) add
// failure points that reduce reliability.
func E9EndToEnd(seed uint64) *Result {
	res := &Result{
		ID:    "E9",
		Title: "in-network features vs new-application launch",
		Claim: "§VI-A: barriers to new applications are much more destructive than network support of proven applications is helpful",
		Columns: []string{
			"newapp-success", "web-latency-ms", "delivery", "failure-points",
		},
	}
	// "That which is not permitted is forbidden": block all but the known
	// application ports. The deny set is ports 1024–10000, and the known
	// ports (25, 80, 443) lie below it. Firewalls only read the set, so
	// they all share one.
	blocked := map[uint16]bool{}
	for p := uint16(1024); p <= 10000; p++ {
		blocked[p] = true
	}
	for _, density := range []float64{0, 0.25, 0.5, 0.75} {
		rng := sim.NewRNG(seed)
		g := topology.GenerateHierarchy(topology.DefaultHierarchy(), rng)
		sched := sim.NewScheduler()
		net := netsim.New(sched, g)
		pv := pathvector.New(g)
		if err := pv.Converge(); err != nil {
			panic(err)
		}
		failurePoints := 0
		for _, id := range g.NodeIDs() {
			nd := net.Node(id)
			nd.Route = pv.RouteFunc(id)
			if g.Nodes[id].Kind == topology.Transit && rng.Bool(density) {
				nd.AddMiddlebox(&middlebox.PortFirewall{Label: fmt.Sprintf("fw-%d", id), BlockedPorts: blocked})
				failurePoints++
			}
		}
		stubs := g.Stubs()
		send := func(port uint16) *netsim.Trace {
			src := stubs[rng.Intn(len(stubs))]
			dst := stubs[rng.Intn(len(stubs))]
			for dst == src {
				dst = stubs[rng.Intn(len(stubs))]
			}
			data, err := packet.Serialize(
				&packet.TIP{TTL: 32, Proto: packet.LayerTypeTTP,
					Src: packet.MakeAddr(uint16(src), 1), Dst: packet.MakeAddr(uint16(dst), 1)},
				&packet.TTP{DstPort: port, Next: packet.LayerTypeRaw},
				&packet.Raw{Data: []byte("app")})
			if err != nil {
				panic(err)
			}
			return net.Send(src, data)
		}
		var newApp, webTraces []*netsim.Trace
		for i := 0; i < 150; i++ {
			newApp = append(newApp, send(7777)) // unproven application
			webTraces = append(webTraces, send(80))
		}
		sched.Run()
		newOK, webOK := 0, 0
		var webLat sim.Series
		for _, tr := range newApp {
			if tr.Delivered {
				newOK++
			}
		}
		for _, tr := range webTraces {
			if tr.Delivered {
				webOK++
				webLat.Add(tr.Latency().Millis())
			}
		}
		// Web latency benefits from caches at feature-bearing nodes: a
		// cache hit saves the remaining path. Model as an app-level
		// cache serving a Zipf-ish popular set.
		origin := apps.NewWebOrigin(sim.Time(webLat.Mean() * float64(sim.Millisecond)))
		for i := 0; i < 50; i++ {
			origin.Put(fmt.Sprintf("page-%d", i), 1000)
		}
		cache := apps.NewWebCache(20, 3*sim.Millisecond, origin)
		var effWebLat sim.Series
		if failurePoints > 0 {
			for i := 0; i < 300; i++ {
				page := fmt.Sprintf("page-%d", rng.Intn(10+rng.Intn(40)))
				if _, lat, ok := cache.Get(page); ok {
					effWebLat.Add(lat.Millis())
				}
			}
		} else {
			effWebLat = webLat
		}
		res.AddRow(fmt.Sprintf("feature-density=%.0f%%", density*100),
			ratio(newOK, len(newApp)),
			effWebLat.Mean(),
			ratio(webOK, len(webTraces)),
			float64(failurePoints))
	}
	res.Finding = fmt.Sprintf(
		"raising in-network feature density from 0 to 75%% cuts new-application launch success from %.0f%% to %.0f%% while improving mature-web latency from %.1fms to %.1fms — the asymmetry §VI-A warns about",
		res.MustGet("feature-density=0%", "newapp-success")*100,
		res.MustGet("feature-density=75%", "newapp-success")*100,
		res.MustGet("feature-density=0%", "web-latency-ms"),
		res.MustGet("feature-density=75%", "web-latency-ms"))
	return res
}

// E10Encryption tests the §VI-A escalation: users encrypt; a provider
// may refuse to carry encrypted traffic. Under competition, blocking
// drives encryption-valuing customers to a rival, so the block is
// unprofitable and carriers carry; a monopoly can hold the block, and
// "policy will probably trump technology". The inspectable-crypto
// compromise (visible inner type) gives middle ground.
func E10Encryption(seed uint64) *Result {
	res := &Result{
		ID:    "E10",
		Title: "encryption escalation under competition vs monopoly",
		Claim: "§VI-A: competition disciplines a provider that blocks encryption; a monopoly can sustain the block",
		Columns: []string{
			"blocker-subscribers", "blocker-profit", "encrypted-carried",
		},
	}
	for _, competition := range []string{"monopoly", "competitive"} {
		for _, policy := range []string{"carry", "block-crypto"} {
			rng := sim.NewRNG(seed)
			blocker := &economics.Provider{
				Cost: 2,
				Offer: economics.Offer{Price: 8, AllowsServers: true,
					AllowsEncryption: policy == "carry"},
				Strat: economics.StaticPricing{},
			}
			providers := []*economics.Provider{blocker}
			if competition == "competitive" {
				providers = append(providers, &economics.Provider{
					Cost:  2,
					Offer: economics.Offer{Price: 8.5, AllowsServers: true, AllowsEncryption: true},
					Strat: economics.StaticPricing{},
				})
			}
			var consumers []*economics.Consumer
			for i := 0; i < 100; i++ {
				consumers = append(consumers, &economics.Consumer{
					WTP: rng.Range(12, 18), SwitchCost: 0.5,
					WantsEncryption: i%2 == 0,
				})
			}
			m := economics.NewMarket(providers, consumers)
			m.Run(20)
			// Encrypted traffic carried: subscribers who want
			// encryption and sit on a carrier that allows it.
			carried := 0
			wanters := 0
			for _, c := range consumers {
				if !c.WantsEncryption {
					continue
				}
				wanters++
				if c.Provider >= 0 && providers[c.Provider].Offer.AllowsEncryption {
					carried++
				}
			}
			res.AddRow(fmt.Sprintf("%s %s", competition, policy),
				float64(blocker.Subscribers), blocker.Profit,
				ratio(carried, wanters))
		}
	}
	res.Finding = fmt.Sprintf(
		"blocking encryption costs the provider nothing as a monopoly (profit %.0f vs %.0f carrying) because users have nowhere to go, but under competition the block drives profit from %.0f to %.0f as encryption-valuing customers defect",
		res.MustGet("monopoly block-crypto", "blocker-profit"),
		res.MustGet("monopoly carry", "blocker-profit"),
		res.MustGet("competitive carry", "blocker-profit"),
		res.MustGet("competitive block-crypto", "blocker-profit"))
	return res
}
