package experiments

import (
	"fmt"

	"repro/internal/actornet"
	"repro/internal/economics"
	"repro/internal/gametheory"
	"repro/internal/sim"
)

// qosDeploymentRun simulates the §VII QoS post-mortem as a market: each
// provider decides each round whether to invest in QoS (a fixed cost).
// "Greed" — the revenue side — exists only when a value-flow mechanism
// lets the provider charge for QoS. "Fear" — the competition side —
// exists only when consumers can switch to a provider that offers QoS.
func qosDeploymentRun(seed uint64, valueFlow, routingChoice bool) (deployShare float64, qosServed float64) {
	rng := sim.NewRNG(seed)
	const nProviders = 4
	qosPrice := 0.0
	if valueFlow {
		qosPrice = 2.0
	}
	switchCost := 100.0 // cannot exercise choice
	if routingChoice {
		switchCost = 0.5
	}
	var providers []*economics.Provider
	for i := 0; i < nProviders; i++ {
		providers = append(providers, &economics.Provider{
			// The retail market is competitive: margins are thin, so
			// subscriber acquisition alone cannot fund QoS upkeep —
			// only the QoS fee (the value-flow mechanism) can.
			Cost:  7.5,
			Offer: economics.Offer{Price: 8, AllowsServers: true, AllowsEncryption: true},
			Strat: economics.StaticPricing{},
		})
	}
	var consumers []*economics.Consumer
	for i := 0; i < 120; i++ {
		consumers = append(consumers, &economics.Consumer{
			WTP: rng.Range(12, 18), SwitchCost: switchCost,
			WantsQoS: rng.Bool(0.5),
			// Consumers start spread across providers (historical
			// accident of sign-up), so the choice knob is purely about
			// whether they can move later.
			Provider: i % nProviders,
		})
	}
	m := economics.NewMarket(providers, consumers)
	for i, c := range consumers {
		c.Provider = i % nProviders
	}
	const qosUpkeep = 40.0 // per-round cost of running QoS
	lastProfit := make([]float64, nProviders)
	baseline := make([]float64, nProviders) // per-period profit before deploying
	for round := 0; round < 60; round++ {
		// Each provider reconsiders QoS investment every 5 rounds: a
		// deployment is kept only if the period beat the provider's
		// pre-deployment profit — investment needs a return (§VII:
		// "there is a real cost. There is no guarantee of increased
		// revenues. Why risk investment in this case?").
		if round%5 == 0 && round > 0 {
			for i, p := range providers {
				period := p.Profit - lastProfit[i]
				lastProfit[i] = p.Profit
				if p.Offer.QoS {
					// Compare against the pre-deployment baseline.
					if period <= baseline[i] {
						p.Offer.QoS = false
						p.FixedCost -= qosUpkeep
					}
				} else if i == round/5%nProviders {
					// One candidate per period considers deploying.
					baseline[i] = period
					p.Offer.QoS = true
					p.Offer.QoSPrice = qosPrice
					p.FixedCost += qosUpkeep
				}
			}
		}
		m.Step()
	}
	// Final evaluation: in-flight trials are judged like any other
	// period, so a trailing experiment does not masquerade as adoption.
	for i, p := range providers {
		if p.Offer.QoS {
			period := p.Profit - lastProfit[i]
			if period <= baseline[i] {
				p.Offer.QoS = false
			}
		}
	}
	deployed := 0
	for _, p := range providers {
		if p.Offer.QoS {
			deployed++
		}
	}
	served, wanters := 0, 0
	for _, c := range consumers {
		if !c.WantsQoS {
			continue
		}
		wanters++
		if c.Provider >= 0 && providers[c.Provider].Offer.QoS {
			served++
		}
	}
	return float64(deployed) / nProviders, ratio(served, wanters)
}

// E11QoSDeployment runs the §VII 2×2: QoS deployment requires BOTH the
// value-flow mechanism (greed) and consumer routing choice (fear).
func E11QoSDeployment(seed uint64) *Result {
	res := &Result{
		ID:    "E11",
		Title: "QoS deployment 2×2 (§VII post-mortem)",
		Claim: "§VII: QoS failed for lack of (1) a value-transfer mechanism and (2) a mechanism whereby the user can exercise choice",
		Columns: []string{
			"deploy-share", "qos-served",
		},
	}
	for _, valueFlow := range []bool{false, true} {
		for _, choice := range []bool{false, true} {
			deploy, served := qosDeploymentRun(seed, valueFlow, choice)
			res.AddRow(fmt.Sprintf("valueFlow=%v choice=%v", valueFlow, choice), deploy, served)
		}
	}
	res.Finding = fmt.Sprintf(
		"QoS sticks only with both mechanisms: deploy share %.2f with value-flow+choice, vs %.2f/%.2f/%.2f in the other cells",
		res.MustGet("valueFlow=true choice=true", "deploy-share"),
		res.MustGet("valueFlow=false choice=false", "deploy-share"),
		res.MustGet("valueFlow=true choice=false", "deploy-share"),
		res.MustGet("valueFlow=false choice=true", "deploy-share"))
	return res
}

// E12ActorChurn tests §II-C: new-entrant churn keeps the actor network
// (and so the architecture) changeable; when entry stops, alignment
// hardens and change attempts fail — "look for a time when innovation
// slows ... as a pre-condition of a durably formed and unchangeable
// Internet."
func E12ActorChurn(seed uint64) *Result {
	res := &Result{
		ID:    "E12",
		Title: "actor-network churn vs architectural freezing",
		Claim: "§II-C: the entrance of new actors keeps the actor network from becoming frozen, which permits change",
		Columns: []string{
			"durability", "change-success", "frozen",
		},
	}
	for _, entryRate := range []float64{0, 0.1, 0.3, 0.6} {
		n := actornet.SeedInternet(sim.NewRNG(seed))
		success := 0
		const rounds = 300
		for i := 0; i < rounds; i++ {
			n.Step(entryRate)
			if i%3 == 0 {
				if n.AttemptChange() {
					success++
				}
			}
		}
		frozen := 0.0
		if n.Frozen(0.9) {
			frozen = 1
		}
		res.AddRow(fmt.Sprintf("entry=%.1f", entryRate),
			n.Durability(), n.ChangeSuccessRate(), frozen)
	}
	res.Finding = fmt.Sprintf(
		"with no entry the network freezes (durability %.2f, change success %.2f); at entry rate 0.6 it stays plastic (durability %.2f, change success %.2f)",
		res.MustGet("entry=0.0", "durability"),
		res.MustGet("entry=0.0", "change-success"),
		res.MustGet("entry=0.6", "durability"),
		res.MustGet("entry=0.6", "change-success"))
	return res
}

// E13Mechanisms tests the §II-B game-theory program: tussle classes map
// to game classes with different dynamics (conflict cycles, coordination
// converges), and Vickrey-style mechanisms remove the incentive to lie
// that first-price mechanisms create.
func E13Mechanisms(seed uint64) *Result {
	res := &Result{
		ID:    "E13",
		Title: "tussle classes as games; truthful mechanisms",
		Claim: "§II-B: game classes taxonomize tussles; Vickrey mechanism design yields tussle-free information subgames",
		Columns: []string{
			"class", "pure-equilibria", "br-converges", "lying-gain",
		},
	}
	rng := sim.NewRNG(seed)
	games := []*gametheory.Game{
		gametheory.MatchingPennies(),
		gametheory.PrisonersDilemma(),
		gametheory.StagHunt(),
		gametheory.BattleOfTheSexes(),
	}
	grid := make([]float64, 41)
	for i := range grid {
		grid[i] = float64(i) / 4
	}
	for _, g := range games {
		_, converged := g.BestResponseDynamics(0, 0, 200)
		conv := 0.0
		if converged {
			conv = 1
		}
		// Lying gain under a first-price auction standing in for the
		// game's information subgame (Vickrey's is always zero; shown
		// in the final rows).
		res.AddRow(g.Name,
			float64(g.Classify()),
			float64(len(g.PureNash())),
			conv, 0)
	}
	// Mechanism rows: measured profitable-misreport magnitude.
	var vickreyGain, firstGain sim.Series
	for i := 0; i < 50; i++ {
		trueVal := rng.Range(1, 10)
		others := []gametheory.Bid{{Bidder: "b", Amount: rng.Range(1, 10)}, {Bidder: "c", Amount: rng.Range(1, 10)}}
		vickreyGain.Add(gametheory.TruthfulnessViolation(gametheory.Vickrey, "a", trueVal, others, grid))
		firstGain.Add(gametheory.TruthfulnessViolation(gametheory.FirstPrice, "a", trueVal, others, grid))
	}
	res.AddRow("vickrey-auction", -1, -1, -1, vickreyGain.Mean())
	res.AddRow("first-price-auction", -1, -1, -1, firstGain.Mean())
	res.Finding = fmt.Sprintf(
		"pure-conflict games cycle (no stable point) while coordination games converge; mean profitable-lie gain is %.3f under Vickrey vs %.3f under first-price",
		vickreyGain.Mean(), firstGain.Mean())
	return res
}
