package economics

import (
	"testing"

	"repro/internal/sim"
)

func BenchmarkMarketRound(b *testing.B) {
	rng := sim.NewRNG(1)
	providers := []*Provider{
		{Cost: 2, Offer: Offer{Price: 8, AllowsServers: true}, Strat: CompetitivePricing{}},
		{Cost: 2, Offer: Offer{Price: 9, AllowsServers: true}, Strat: CompetitivePricing{}},
		{Cost: 2, Offer: Offer{Price: 10}, Strat: &GreedPricing{}},
	}
	consumers := make([]*Consumer, 500)
	for i := range consumers {
		consumers[i] = &Consumer{WTP: rng.Range(10, 25), SwitchCost: 1, RunsServer: i%3 == 0}
	}
	m := NewMarket(providers, consumers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
}

func BenchmarkLedgerTransfer(b *testing.B) {
	l := NewLedger(map[string]float64{"a": 1e12, "b": 0})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := l.Transfer("a", "b", 0.001); err != nil {
			b.Fatal(err)
		}
	}
}
