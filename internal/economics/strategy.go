package economics

import "math"

// StaticPricing never changes the offer.
type StaticPricing struct{}

// Name implements Strategy.
func (StaticPricing) Name() string { return "static" }

// Reprice implements Strategy.
func (StaticPricing) Reprice(p *Provider, view MarketView) Offer { return p.Offer }

// CompetitivePricing undercuts the cheapest rival by a step while staying
// above cost — the "fear" dynamic: competition disciplines the market.
type CompetitivePricing struct {
	// Step is the undercut increment.
	Step float64
	// Floor is the minimum margin over cost.
	Floor float64
}

// Name implements Strategy.
func (CompetitivePricing) Name() string { return "competitive" }

// Reprice implements Strategy.
func (s CompetitivePricing) Reprice(p *Provider, view MarketView) Offer {
	o := p.Offer
	minRival := math.Inf(1)
	for i, price := range view.Prices {
		if i != view.Self && price < minRival {
			minRival = price
		}
	}
	step := s.Step
	if step == 0 {
		step = 0.25
	}
	target := o.Price
	switch {
	case math.IsInf(minRival, 1):
		// No rival: nothing to fear; creep upward.
		target = o.Price + step/2
	case minRival <= o.Price:
		// Undercut — the Bertrand price war.
		target = minRival - step
	default:
		// Cheapest already; raise toward (but below) the rival.
		target = o.Price + step/2
		if target > minRival-step {
			target = minRival - step
		}
	}
	floor := p.Cost + s.Floor
	if target < floor {
		target = floor
	}
	o.Price = target
	return o
}

// GreedPricing raises price while subscribers hold, and remembers the
// price that drove them away — the monopolist probing willingness-to-pay.
// With no competitive alternative, the price converges just below the
// consumers' valuation.
type GreedPricing struct {
	Step float64

	lastSubs int
	ceiling  float64
}

// Name implements Strategy.
func (*GreedPricing) Name() string { return "greed" }

// Reprice implements Strategy.
func (s *GreedPricing) Reprice(p *Provider, view MarketView) Offer {
	o := p.Offer
	step := s.Step
	if step == 0 {
		step = 0.25
	}
	if s.ceiling == 0 {
		s.ceiling = math.Inf(1)
	}
	if view.Round > 1 && p.Subscribers < s.lastSubs {
		// The current price lost customers: that is the ceiling.
		if o.Price < s.ceiling {
			s.ceiling = o.Price
		}
		o.Price = s.ceiling - step
	} else if o.Price+step < s.ceiling {
		o.Price += step
	}
	if o.Price < p.Cost {
		o.Price = p.Cost
	}
	s.lastSubs = p.Subscribers
	return o
}
