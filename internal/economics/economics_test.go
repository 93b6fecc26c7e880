package economics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// mkConsumers builds n homogeneous consumers.
func mkConsumers(n int, wtp, switchCost float64) []*Consumer {
	out := make([]*Consumer, n)
	for i := range out {
		out[i] = &Consumer{WTP: wtp, SwitchCost: switchCost}
	}
	return out
}

func TestMonopolyRaisesPricesCompetitionDisciplines(t *testing.T) {
	run := func(nProviders int) float64 {
		var providers []*Provider
		for i := 0; i < nProviders; i++ {
			providers = append(providers, &Provider{
				Cost:  2,
				Offer: Offer{Price: 5, AllowsServers: true, AllowsEncryption: true},
				Strat: func() Strategy {
					if nProviders == 1 {
						return &GreedPricing{}
					}
					return CompetitivePricing{Step: 0.25, Floor: 0.25}
				}(),
			})
		}
		m := NewMarket(providers, mkConsumers(100, 20, 0.5))
		m.Run(100)
		return m.MeanPrice()
	}
	mono := run(1)
	comp := run(4)
	if mono <= comp {
		t.Fatalf("monopoly price %v should exceed competitive price %v", mono, comp)
	}
	if comp > 5 {
		t.Fatalf("competition failed to discipline price: %v", comp)
	}
}

func TestSwitchingCostProtectsIncumbent(t *testing.T) {
	// Two providers: the incumbent is expensive, the entrant cheap.
	// With high switching costs (hard renumbering), consumers stay.
	run := func(switchCost float64) int {
		incumbent := &Provider{Cost: 2, Offer: Offer{Price: 10, AllowsServers: true, AllowsEncryption: true}, Strat: StaticPricing{}}
		entrant := &Provider{Cost: 2, Offer: Offer{Price: 6, AllowsServers: true, AllowsEncryption: true}, Strat: StaticPricing{}}
		consumers := mkConsumers(100, 20, switchCost)
		m := NewMarket([]*Provider{incumbent, entrant}, consumers)
		// Round 1: everyone picks the entrant (cheaper) — so seed them
		// on the incumbent first by making it briefly cheapest.
		incumbent.Offer.Price = 5
		m.Step()
		incumbent.Offer.Price = 10
		m.Run(10)
		return m.Switches
	}
	lockedIn := run(8)   // renumbering is painful
	freeToMove := run(1) // DHCP + dynamic DNS
	if lockedIn >= freeToMove {
		t.Fatalf("switches: locked-in %d should be < free %d", lockedIn, freeToMove)
	}
	if freeToMove < 90 {
		t.Fatalf("cheap switching should free nearly all consumers, got %d", freeToMove)
	}
}

func TestValuePricingTunnelEvasion(t *testing.T) {
	// A provider bans servers (value pricing). Consumers who can tunnel
	// evade; those who cannot pay the surcharge.
	isp := &Provider{Cost: 1, Offer: Offer{Price: 5, AllowsServers: false, ServerSurcharge: 3, AllowsEncryption: true}, Strat: StaticPricing{}}
	consumers := mkConsumers(50, 20, 1)
	for i, c := range consumers {
		c.RunsServer = true
		c.CanTunnel = i < 25 // half are savvy
	}
	m := NewMarket([]*Provider{isp}, consumers)
	m.Run(4)
	if m.Tunnels == 0 {
		t.Fatal("no tunneling despite a server ban")
	}
	// Tunnelers don't pay the surcharge — provider revenue is lower
	// than if no one could tunnel.
	isp2 := &Provider{Cost: 1, Offer: isp.Offer, Strat: StaticPricing{}}
	consumers2 := mkConsumers(50, 20, 1)
	for _, c := range consumers2 {
		c.RunsServer = true
	}
	m2 := NewMarket([]*Provider{isp2}, consumers2)
	m2.Run(4)
	if isp.Revenue >= isp2.Revenue {
		t.Fatalf("tunneling should cut revenue: %v vs %v", isp.Revenue, isp2.Revenue)
	}
}

func TestUnservedWhenPriceExceedsWTP(t *testing.T) {
	isp := &Provider{Cost: 1, Offer: Offer{Price: 50}, Strat: StaticPricing{}}
	m := NewMarket([]*Provider{isp}, mkConsumers(10, 20, 1))
	m.Run(3)
	if m.Unserved != 30 {
		t.Fatalf("unserved = %d, want 30", m.Unserved)
	}
	if isp.Subscribers != 0 {
		t.Fatal("overpriced provider kept subscribers")
	}
}

func TestProviderExitAfterLosses(t *testing.T) {
	loser := &Provider{Cost: 1, FixedCost: 10, Offer: Offer{Price: 100}, Strat: StaticPricing{}}
	m := NewMarket([]*Provider{loser}, mkConsumers(5, 10, 1))
	m.Run(20)
	if loser.Alive {
		t.Fatal("unprofitable empty provider should exit")
	}
}

func TestHHI(t *testing.T) {
	a := &Provider{Cost: 1, Offer: Offer{Price: 5}, Strat: StaticPricing{}}
	b := &Provider{Cost: 1, Offer: Offer{Price: 5}, Strat: StaticPricing{}}
	m := NewMarket([]*Provider{a, b}, mkConsumers(10, 20, 1))
	m.Run(2)
	h := m.HHI()
	if h < 0.49 || h > 1.01 {
		t.Fatalf("HHI = %v", h)
	}
	// Monopoly HHI = 1.
	m2 := NewMarket([]*Provider{{Cost: 1, Offer: Offer{Price: 5}, Strat: StaticPricing{}, Alive: true}}, mkConsumers(10, 20, 1))
	m2.Run(2)
	if m2.HHI() != 1 {
		t.Fatalf("monopoly HHI = %v", m2.HHI())
	}
}

func TestQoSRevenue(t *testing.T) {
	with := &Provider{Cost: 1, Offer: Offer{Price: 5, QoS: true, QoSPrice: 2}, Strat: StaticPricing{}}
	consumers := mkConsumers(20, 20, 1)
	for _, c := range consumers {
		c.WantsQoS = true
	}
	m := NewMarket([]*Provider{with}, consumers)
	m.Run(1)
	// Revenue = 20*(5 + 2).
	if math.Abs(with.Revenue-140) > 1e-9 {
		t.Fatalf("revenue = %v, want 140", with.Revenue)
	}
}

func TestConsumerSurplusNonNegative(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		providers := []*Provider{
			{Cost: 1, Offer: Offer{Price: rng.Range(1, 30)}, Strat: StaticPricing{}},
			{Cost: 1, Offer: Offer{Price: rng.Range(1, 30)}, Strat: CompetitivePricing{}},
		}
		consumers := mkConsumers(30, rng.Range(5, 25), rng.Range(0, 5))
		m := NewMarket(providers, consumers)
		m.Run(20)
		return m.ConsumerSurplus() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCompetitivePricingStaysAboveCost(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		providers := []*Provider{
			{Cost: 2, Offer: Offer{Price: rng.Range(3, 20)}, Strat: CompetitivePricing{Step: 0.25, Floor: 0.1}},
			{Cost: 2, Offer: Offer{Price: rng.Range(3, 20)}, Strat: CompetitivePricing{Step: 0.25, Floor: 0.1}},
		}
		m := NewMarket(providers, mkConsumers(40, 25, 0.5))
		m.Run(50)
		for _, p := range providers {
			if p.Offer.Price < p.Cost {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLedgerTransfersAndConservation(t *testing.T) {
	l := NewLedger(map[string]float64{"alice": 100, "isp": 0})
	if err := l.Transfer("alice", "isp", 30); err != nil {
		t.Fatal(err)
	}
	if l.Balance("alice") != 70 || l.Balance("isp") != 30 {
		t.Fatalf("balances = %v/%v", l.Balance("alice"), l.Balance("isp"))
	}
	if !l.Conserved() {
		t.Fatal("conservation broken")
	}
}

func TestLedgerRejectsOverdraftAndNegative(t *testing.T) {
	l := NewLedger(map[string]float64{"a": 10})
	if err := l.Transfer("a", "b", 20); err == nil {
		t.Fatal("overdraft allowed")
	}
	if err := l.Transfer("a", "b", -5); err == nil {
		t.Fatal("negative transfer allowed")
	}
	if !l.Conserved() {
		t.Fatal("failed transfers changed balances")
	}
}

func TestLedgerConservationQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		l := NewLedger(map[string]float64{"a": 100, "b": 100, "c": 100})
		names := []string{"a", "b", "c"}
		for i := 0; i < 50; i++ {
			from := names[rng.Intn(3)]
			to := names[rng.Intn(3)]
			_ = l.Transfer(from, to, rng.Range(0, 50))
		}
		return l.Conserved()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedPricingRatchetsWithoutCompetition(t *testing.T) {
	mono := &Provider{Cost: 1, Offer: Offer{Price: 3}, Strat: &GreedPricing{Step: 0.5}}
	m := NewMarket([]*Provider{mono}, mkConsumers(10, 50, 1))
	m.Run(30)
	if mono.Offer.Price <= 10 {
		t.Fatalf("monopolist price = %v, should ratchet upward", mono.Offer.Price)
	}
}

func TestStrategyNames(t *testing.T) {
	if (StaticPricing{}).Name() != "static" {
		t.Fatal("static name")
	}
	if (CompetitivePricing{}).Name() != "competitive" {
		t.Fatal("competitive name")
	}
	if (&GreedPricing{}).Name() != "greed" {
		t.Fatal("greed name")
	}
}

func TestConsumerValueEncryptionWithoutTunnel(t *testing.T) {
	// A consumer who wants encryption, on a blocking provider, without
	// tunneling skill: no premium, no distortion.
	c := &Consumer{WTP: 10, WantsEncryption: true}
	v, tun := c.valueOf(Offer{Price: 4, AllowsEncryption: false})
	if v != 6 || tun {
		t.Fatalf("value = %v tunneling = %v", v, tun)
	}
	// QoS priced above its premium adds nothing.
	c2 := &Consumer{WTP: 10, WantsQoS: true}
	v2, _ := c2.valueOf(Offer{Price: 4, QoS: true, QoSPrice: QoSPremium + 1})
	if v2 != 6 {
		t.Fatalf("overpriced QoS value = %v", v2)
	}
}
