package experiments

import (
	"fmt"

	"repro/internal/economics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// E3ProviderLockin tests §V-A1: when changing providers is cheap (easy
// renumbering — DHCP plus dynamic name update), consumers switch freely
// and competition disciplines prices; when addresses lock consumers in,
// incumbents keep prices high.
func E3ProviderLockin(seed uint64) *Result { return e3ProviderLockin(seed, nil) }

func e3ProviderLockin(seed uint64, reg *obs.Registry) *Result {
	res := &Result{
		ID:    "E3",
		Title: "provider lock-in from addressing",
		Claim: "§V-A1: mechanisms that make it easy to change addresses shift power to consumers: more switching, lower prices",
		Columns: []string{
			"mean-price", "switch-rate", "consumer-surplus", "hhi",
		},
	}
	for _, entrants := range []int{2, 4} {
		for _, lockin := range []string{"static-addrs", "dhcp+dyn-dns"} {
			rng := sim.NewRNG(seed)
			switchCost := 8.0 // renumbering every host: painful
			if lockin == "dhcp+dyn-dns" {
				switchCost = 0.5
			}
			// The incumbent probes willingness-to-pay; entrants compete
			// among themselves (Bertrand), so the incumbent's
			// sustainable markup is exactly what lock-in buys it.
			incumbent := &economics.Provider{
				Cost:  2,
				Offer: economics.Offer{Price: 6, AllowsServers: true, AllowsEncryption: true},
				Strat: &economics.GreedPricing{Step: 0.25},
			}
			providers := []*economics.Provider{incumbent}
			for i := 0; i < entrants; i++ {
				providers = append(providers, &economics.Provider{
					Cost:  2,
					Offer: economics.Offer{Price: 6, AllowsServers: true, AllowsEncryption: true},
					Strat: economics.CompetitivePricing{Step: 0.25, Floor: 0.5},
				})
			}
			var consumers []*economics.Consumer
			for i := 0; i < 120; i++ {
				consumers = append(consumers, &economics.Consumer{
					WTP:        rng.Range(14, 22),
					SwitchCost: switchCost * rng.Range(0.5, 1.5),
					Provider:   0, // everyone starts on the incumbent
				})
			}
			m := economics.NewMarket(providers, consumers)
			m.AttachObs(reg)
			for _, c := range consumers {
				c.Provider = 0
			}
			m.Run(100)
			res.AddRow(fmt.Sprintf("entrants=%d %s", entrants, lockin),
				incumbent.Offer.Price,
				float64(m.Switches)/float64(100*len(consumers)),
				m.ConsumerSurplus(),
				m.HHI())
		}
	}
	res.Finding = fmt.Sprintf(
		"with 4 entrants, easy renumbering cuts the incumbent's sustainable price from %.2f to %.2f and raises consumer surplus from %.0f to %.0f",
		res.MustGet("entrants=4 static-addrs", "mean-price"),
		res.MustGet("entrants=4 dhcp+dyn-dns", "mean-price"),
		res.MustGet("entrants=4 static-addrs", "consumer-surplus"),
		res.MustGet("entrants=4 dhcp+dyn-dns", "consumer-surplus"))
	return res
}

// E4ValuePricing tests §V-A2: a server ban (value pricing) extracts the
// business-tier surcharge when consumers cannot respond, but tunneling
// lets savvy consumers sidestep it — and competition amplifies the
// leakage because a rival without the ban attracts the evaders.
func E4ValuePricing(seed uint64) *Result { return e4ValuePricing(seed, nil) }

func e4ValuePricing(seed uint64, reg *obs.Registry) *Result {
	res := &Result{
		ID:    "E4",
		Title: "value pricing vs tunneling",
		Claim: "§V-A2: customers sidestep server bans by switching provider if there is one, or by tunneling to disguise ports",
		Columns: []string{
			"isp-revenue", "tunnel-rate", "consumer-surplus",
		},
	}
	for _, competition := range []string{"monopoly", "duopoly"} {
		for _, tunneling := range []string{"no-tunnels", "tunnels"} {
			rng := sim.NewRNG(seed)
			providers := []*economics.Provider{{
				Cost:  2,
				Offer: economics.Offer{Price: 8, AllowsServers: false, ServerSurcharge: 3, AllowsEncryption: true},
				Strat: economics.StaticPricing{},
			}}
			if competition == "duopoly" {
				providers = append(providers, &economics.Provider{
					Cost:  2,
					Offer: economics.Offer{Price: 9, AllowsServers: true, AllowsEncryption: true},
					Strat: economics.StaticPricing{},
				})
			}
			var consumers []*economics.Consumer
			for i := 0; i < 100; i++ {
				consumers = append(consumers, &economics.Consumer{
					WTP: rng.Range(14, 20), SwitchCost: 1,
					RunsServer: i%2 == 0,
					CanTunnel:  tunneling == "tunnels" && i%4 == 0,
				})
			}
			m := economics.NewMarket(providers, consumers)
			m.AttachObs(reg)
			const rounds = 30
			m.Run(rounds)
			res.AddRow(fmt.Sprintf("%s %s", competition, tunneling),
				providers[0].Revenue,
				float64(m.Tunnels)/float64(rounds*len(consumers)),
				m.ConsumerSurplus())
		}
	}
	res.Finding = fmt.Sprintf(
		"tunnels cut the banning ISP's monopoly revenue from %.0f to %.0f; under duopoly the ban costs it customers outright (revenue %.0f)",
		res.MustGet("monopoly no-tunnels", "isp-revenue"),
		res.MustGet("monopoly tunnels", "isp-revenue"),
		res.MustGet("duopoly tunnels", "isp-revenue"))
	return res
}

// E5OpenAccess tests §V-A3: open access imposed at the natural tussle
// boundary — facilities vs ISP service — enables retail competition over
// one set of wires, lowering prices relative to a vertically integrated
// facility owner; but it transfers surplus away from the facility
// investor, which is the paper's caveat ("they probably will not work to
// the advantage of those that invest in the fiber").
func E5OpenAccess(seed uint64) *Result { return e5OpenAccess(seed, nil) }

func e5OpenAccess(seed uint64, reg *obs.Registry) *Result {
	res := &Result{
		ID:    "E5",
		Title: "municipal fiber open access at the facility/ISP boundary",
		Claim: "§V-A3: proposals that implement open access at the facility/service modularity boundary let each tussle play out independently",
		Columns: []string{
			"retail-price", "consumer-surplus", "facility-profit",
		},
	}
	const wholesale = 3.0 // per-subscriber fee paid to the facility owner
	for _, entrants := range []int{0, 1, 3, 5} {
		rng := sim.NewRNG(seed)
		// The facility owner also retails.
		owner := &economics.Provider{
			Cost:  1.5,
			Offer: economics.Offer{Price: 12, AllowsServers: true, AllowsEncryption: true},
			Strat: func() economics.Strategy {
				if entrants == 0 {
					return &economics.GreedPricing{Step: 0.25}
				}
				return economics.CompetitivePricing{Step: 0.25, Floor: 0.5}
			}(),
		}
		providers := []*economics.Provider{owner}
		for i := 0; i < entrants; i++ {
			providers = append(providers, &economics.Provider{
				// Entrants pay wholesale per subscriber on top of their
				// own service cost.
				Cost:  1.0 + wholesale,
				Offer: economics.Offer{Price: 11 - float64(i), AllowsServers: true, AllowsEncryption: true},
				Strat: economics.CompetitivePricing{Step: 0.25, Floor: 0.5},
			})
		}
		var consumers []*economics.Consumer
		for i := 0; i < 150; i++ {
			consumers = append(consumers, &economics.Consumer{WTP: rng.Range(14, 22), SwitchCost: 1})
		}
		m := economics.NewMarket(providers, consumers)
		m.AttachObs(reg)
		const rounds = 80
		m.Run(rounds)
		// Facility profit = owner's retail profit + wholesale revenue
		// from entrant subscribers.
		wholesaleRev := 0.0
		for _, p := range providers[1:] {
			wholesaleRev += float64(p.Subscribers) * wholesale * rounds
		}
		res.AddRow(fmt.Sprintf("entrants=%d", entrants),
			m.MeanPrice(), m.ConsumerSurplus(), owner.Profit+wholesaleRev)
	}
	res.Finding = fmt.Sprintf(
		"opening the facility to 5 retail entrants drops the retail price from %.2f to %.2f and raises consumer surplus %.0f→%.0f, while facility profit falls %.0f→%.0f",
		res.MustGet("entrants=0", "retail-price"),
		res.MustGet("entrants=5", "retail-price"),
		res.MustGet("entrants=0", "consumer-surplus"),
		res.MustGet("entrants=5", "consumer-surplus"),
		res.MustGet("entrants=0", "facility-profit"),
		res.MustGet("entrants=5", "facility-profit"))
	return res
}
