// Provider lock-in: the §V-A1 economics scenario. One incumbent ISP
// probes willingness-to-pay while entrants compete; the only difference
// between the two runs is whether consumers can renumber cheaply
// (DHCP + dynamic name update) or are locked in by provider-rooted
// addresses. The example also shows the addressing mechanics themselves:
// a host renumbering across providers with a dynamic name update.
//
// Run with: go run ./examples/provider_lockin
package main

import (
	"fmt"

	"os"
	"repro/internal/economics"
	"repro/internal/experiments"
	"repro/internal/naming"
	"repro/internal/packet"
	"repro/internal/sim"
)

func main() {
	// Part 1: the mechanism. Addresses are provider-rooted, so changing
	// providers means renumbering — unless a dynamic name layer absorbs
	// the change.
	fmt.Println("— the addressing mechanics —")
	oldAddr := packet.MakeAddr(12, 7) // host 7 inside provider 12
	newAddr := packet.MakeAddr(31, 7) // same host after switching to provider 31
	fmt.Printf("  host address under provider 12: %v\n", oldAddr)
	fmt.Printf("  after switching to provider 31:  %v (the address IS the provider)\n", newAddr)

	root := naming.NewRoot()
	zone := root.Delegate("example")
	zone.Bind("www", oldAddr)
	now := sim.Time(0)
	res := naming.NewResolver(root, 30*sim.Second, func() sim.Time { return now })
	a, _ := res.Resolve("www.example")
	fmt.Printf("  www.example resolves to %v\n", a)
	zone.Bind("www", newAddr) // dynamic update on renumber
	res.Invalidate("www.example")
	a, _ = res.Resolve("www.example")
	fmt.Printf("  after dynamic update:            %v — correspondents never noticed\n", a)

	// Part 2: the market consequence, small scale.
	fmt.Println("\n— the market consequence —")
	for _, label := range []string{"locked-in (static addresses)", "mobile (dhcp + dynamic names)"} {
		rng := sim.NewRNG(3)
		switchCost := 8.0
		if label[0] == 'm' {
			switchCost = 0.5
		}
		incumbent := &economics.Provider{
			Cost:  2,
			Offer: economics.Offer{Price: 6, AllowsServers: true, AllowsEncryption: true},
			Strat: &economics.GreedPricing{Step: 0.25},
		}
		entrant := &economics.Provider{
			Cost:  2,
			Offer: economics.Offer{Price: 6, AllowsServers: true, AllowsEncryption: true},
			Strat: economics.CompetitivePricing{Step: 0.25, Floor: 0.5},
		}
		var consumers []*economics.Consumer
		for i := 0; i < 60; i++ {
			consumers = append(consumers, &economics.Consumer{
				WTP: rng.Range(14, 22), SwitchCost: switchCost * rng.Range(0.5, 1.5), Provider: 0,
			})
		}
		m := economics.NewMarket([]*economics.Provider{incumbent, entrant}, consumers)
		for _, c := range consumers {
			c.Provider = 0
		}
		m.Run(100)
		fmt.Printf("  %-32s incumbent price %.2f, switches %d, surplus %.0f\n",
			label, incumbent.Offer.Price, m.Switches, m.ConsumerSurplus())
	}

	// Part 3: the full experiment table.
	fmt.Println("\n— the E3 sweep —")
	experiments.E3ProviderLockin(42).Render(os.Stdout)
}
