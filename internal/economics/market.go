// Package economics implements the market substrate for the economic
// tussle spaces of §V-A: providers with pricing strategies, consumers
// with preferences and switching costs, round-based competition dynamics,
// and a conserved-value payment ledger (the "value flow" protocol
// support of §IV-C).
//
// The engine deliberately models the two "drivers of investment" the
// paper names: greed (providers reprice toward willingness-to-pay when
// customers cannot leave) and fear (competition disciplines prices when
// switching is cheap). Provider lock-in enters as a per-consumer
// switching cost — high when renumbering is hard (§V-A1), low with
// DHCP/dynamic-update mechanisms.
package economics

import (
	"math"

	"repro/internal/obs"
)

// Offer is what a provider sells: a price and service attributes that
// consumers value.
type Offer struct {
	// Price per round.
	Price float64
	// AllowsServers: no value-pricing server ban (§V-A2).
	AllowsServers bool
	// ServerSurcharge is the extra "business tier" price for consumers
	// who run servers, when servers are otherwise banned.
	ServerSurcharge float64
	// AllowsEncryption: carries opaque encrypted traffic (§VI-A).
	AllowsEncryption bool
	// QoS: offers the premium service class openly (§VII).
	QoS bool
	// QoSPrice is the surcharge for QoS, when offered.
	QoSPrice float64
}

// Strategy updates a provider's offer each round given a market view.
type Strategy interface {
	Reprice(p *Provider, view MarketView) Offer
	Name() string
}

// MarketView is the public state a strategy may condition on — prices are
// visible (choices exposed), costs are not.
type MarketView struct {
	Prices []float64
	Round  int
	// Self is the index of the provider being repriced.
	Self int
}

// Provider is one service provider.
type Provider struct {
	// Cost is the marginal cost of serving one consumer per round.
	Cost float64
	// FixedCost is the per-round cost of being in the market at all.
	FixedCost float64
	Offer     Offer
	Strat     Strategy

	Subscribers int
	Revenue     float64
	Profit      float64
	// Alive is false after exit.
	Alive bool
	// lossStreak counts consecutive unprofitable rounds.
	lossStreak int
}

// Consumer is one buyer.
type Consumer struct {
	// WTP is base willingness to pay per round.
	WTP float64
	// RunsServer, WantsEncryption, WantsQoS mark feature demand; each
	// adds the corresponding premium to the consumer's valuation of an
	// offer that satisfies it.
	RunsServer      bool
	WantsEncryption bool
	WantsQoS        bool
	// CanTunnel is the §V-A2 counter-move capability: run a server (or
	// encrypt) despite a ban by tunneling, at a hassle cost.
	CanTunnel bool
	// SwitchCost is what changing providers costs this consumer — the
	// lock-in knob.
	SwitchCost float64

	// Provider indexes the current provider; -1 means unserved.
	Provider int
	// Tunneling reports whether the consumer currently evades via
	// tunnel (a distortion event).
	Tunneling bool
	// Surplus accumulates utility.
	Surplus float64
}

// Premiums consumers attach to features, and the hassle cost of
// tunneling around a restriction.
const (
	ServerPremium     = 4.0
	EncryptionPremium = 3.0
	QoSPremium        = 5.0
	TunnelHassle      = 1.5
)

// valueOf computes a consumer's per-round value for an offer, and whether
// taking it entails tunneling.
func (c *Consumer) valueOf(o Offer) (val float64, tunneling bool) {
	val = c.WTP - o.Price
	if c.RunsServer {
		switch {
		case o.AllowsServers:
			val += ServerPremium
		case o.ServerSurcharge > 0 && ServerPremium-o.ServerSurcharge >= 0:
			// Pay the business tier if it is worth it...
			payTier := ServerPremium - o.ServerSurcharge
			if c.CanTunnel && ServerPremium-TunnelHassle > payTier {
				val += ServerPremium - TunnelHassle
				tunneling = true
			} else {
				val += payTier
			}
		case c.CanTunnel:
			val += ServerPremium - TunnelHassle
			tunneling = true
		}
	}
	if c.WantsEncryption {
		switch {
		case o.AllowsEncryption:
			val += EncryptionPremium
		case c.CanTunnel:
			val += EncryptionPremium - TunnelHassle
			tunneling = true
		}
	}
	if c.WantsQoS && o.QoS {
		net := QoSPremium - o.QoSPrice
		if net > 0 {
			val += net
		}
	}
	return val, tunneling
}

// Market is the assembled round-based market.
type Market struct {
	Providers []*Provider
	Consumers []*Consumer
	Round     int

	// Switches counts provider changes; Tunnels counts rounds spent
	// tunneling (distortion); Unserved counts consumer-rounds with no
	// acceptable offer.
	Switches, Tunnels, Unserved int

	// obs instruments market clearing; nil means disabled.
	mobs *marketObs
}

// marketObs bundles the market's instruments. The round clock is the
// market's deterministic time base, so per-round distributions stand in
// for span timings.
type marketObs struct {
	rounds   *obs.Counter
	switches *obs.Counter
	tunnels  *obs.Counter
	unserved *obs.Counter
	exits    *obs.Counter
	perRound *obs.Histogram // switches per clearing round
}

// AttachObs enables market observability: counters for rounds cleared,
// provider switches, tunneling (distortion) rounds, unserved
// consumer-rounds, and provider exits, plus the per-round switch
// distribution — the run-time signals the §V-A tussles are argued over
// (who paid, who left, who evaded). A nil registry disables again.
func (m *Market) AttachObs(reg *obs.Registry) {
	if reg == nil {
		m.mobs = nil
		return
	}
	m.mobs = &marketObs{
		rounds:   reg.Counter("econ.market.rounds"),
		switches: reg.Counter("econ.market.switches"),
		tunnels:  reg.Counter("econ.market.tunnels"),
		unserved: reg.Counter("econ.market.unserved"),
		exits:    reg.Counter("econ.market.provider_exits"),
		perRound: reg.Histogram("econ.market.round_switches", obs.CountBuckets),
	}
}

// NewMarket wires providers and consumers together.
func NewMarket(providers []*Provider, consumers []*Consumer) *Market {
	for _, p := range providers {
		p.Alive = true
	}
	for _, c := range consumers {
		c.Provider = -1
	}
	return &Market{Providers: providers, Consumers: consumers}
}

// view builds the public market view.
func (m *Market) view() MarketView {
	v := MarketView{Round: m.Round}
	for _, p := range m.Providers {
		price := math.Inf(1)
		if p.Alive {
			price = p.Offer.Price
		}
		v.Prices = append(v.Prices, price)
	}
	return v
}

// Step runs one market round: repricing, consumer choice, accounting,
// and exit of persistently unprofitable providers.
func (m *Market) Step() {
	m.Round++
	switches0, tunnels0, unserved0 := m.Switches, m.Tunnels, m.Unserved
	view := m.view()
	for i, p := range m.Providers {
		if p.Alive && p.Strat != nil {
			view.Self = i
			p.Offer = p.Strat.Reprice(p, view)
			if p.Offer.Price < 0 {
				p.Offer.Price = 0
			}
		}
	}
	// Consumers choose.
	for _, c := range m.Consumers {
		bestIdx, bestVal, bestTun := -1, 0.0, false
		for i, p := range m.Providers {
			if !p.Alive {
				continue
			}
			v, tun := c.valueOf(p.Offer)
			if v > 0 && (bestIdx == -1 || v > bestVal) {
				bestIdx, bestVal, bestTun = i, v, tun
			}
		}
		cur := c.Provider
		if cur >= 0 && !m.Providers[cur].Alive {
			cur = -1
			c.Provider = -1
		}
		switch {
		case bestIdx == -1:
			// No acceptable offer: drop service.
			if cur != -1 {
				c.Provider = -1
			}
			c.Tunneling = false
			m.Unserved++
		case cur == -1:
			c.Provider = bestIdx
			c.Tunneling = bestTun
			c.Surplus += bestVal
		default:
			curVal, curTun := c.valueOf(m.Providers[cur].Offer)
			if bestIdx != cur && bestVal-curVal > c.SwitchCost {
				c.Provider = bestIdx
				c.Tunneling = bestTun
				c.Surplus += bestVal - c.SwitchCost
				m.Switches++
			} else {
				c.Tunneling = curTun
				if curVal > 0 {
					c.Surplus += curVal
				} else {
					// Losing money: leave.
					c.Provider = -1
					c.Tunneling = false
					m.Unserved++
				}
			}
		}
		if c.Tunneling {
			m.Tunnels++
		}
	}
	// Provider accounting.
	for i, p := range m.Providers {
		if !p.Alive {
			continue
		}
		subs := 0
		rev := 0.0
		for _, c := range m.Consumers {
			if c.Provider != i {
				continue
			}
			subs++
			rev += p.Offer.Price
			if c.RunsServer && !p.Offer.AllowsServers && !c.Tunneling && p.Offer.ServerSurcharge > 0 && ServerPremium-p.Offer.ServerSurcharge >= 0 {
				rev += p.Offer.ServerSurcharge
			}
			if c.WantsQoS && p.Offer.QoS && QoSPremium-p.Offer.QoSPrice > 0 {
				rev += p.Offer.QoSPrice
			}
		}
		p.Subscribers = subs
		profit := rev - float64(subs)*p.Cost - p.FixedCost
		p.Revenue += rev
		p.Profit += profit
		if profit < 0 {
			p.lossStreak++
		} else {
			p.lossStreak = 0
		}
		if p.lossStreak >= 8 && subs == 0 {
			p.Alive = false
			if m.mobs != nil {
				m.mobs.exits.Inc()
			}
		}
	}
	if m.mobs != nil {
		m.mobs.rounds.Inc()
		m.mobs.switches.Add(int64(m.Switches - switches0))
		m.mobs.tunnels.Add(int64(m.Tunnels - tunnels0))
		m.mobs.unserved.Add(int64(m.Unserved - unserved0))
		m.mobs.perRound.Observe(float64(m.Switches - switches0))
	}
}

// Run executes n rounds.
func (m *Market) Run(n int) {
	for i := 0; i < n; i++ {
		m.Step()
	}
}

// MeanPrice is the subscriber-weighted mean price of live providers.
func (m *Market) MeanPrice() float64 {
	subs, total := 0, 0.0
	for _, p := range m.Providers {
		if p.Alive && p.Subscribers > 0 {
			subs += p.Subscribers
			total += p.Offer.Price * float64(p.Subscribers)
		}
	}
	if subs == 0 {
		return 0
	}
	return total / float64(subs)
}

// ConsumerSurplus sums accumulated consumer surplus.
func (m *Market) ConsumerSurplus() float64 {
	total := 0.0
	for _, c := range m.Consumers {
		total += c.Surplus
	}
	return total
}

// HHI is the Herfindahl–Hirschman concentration index of subscriber
// shares (0..1; 1 = monopoly).
func (m *Market) HHI() float64 {
	total := 0
	for _, p := range m.Providers {
		if p.Alive {
			total += p.Subscribers
		}
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, p := range m.Providers {
		if p.Alive {
			share := float64(p.Subscribers) / float64(total)
			h += share * share
		}
	}
	return h
}
