package chaos

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/routing/linkstate"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trust"
)

// Observer is notified after the engine applies each fault (and each
// individual flap toggle), with the network already reflecting the new
// state. Routing adapters use this to re-converge; see reroute.go.
type Observer interface {
	Fault(ev Event, now sim.Time)
}

// Engine replays fault plans onto a network. Create one per simulation
// with New, bind optional consumers (AdDB for byzantine bursts), register
// observers, then Schedule one or more plans before running the
// scheduler.
type Engine struct {
	Net *netsim.Network

	// AdDB receives byzantine-burst advertisements; scheduling a plan
	// containing bursts without binding it is a schedule-time error.
	AdDB *linkstate.AdDatabase
	// Keys, when set, signs burst advertisements with the lying node's
	// own key — a byzantine insider has valid credentials, which is
	// exactly why one-sided signature checking is not enough (§V-B).
	Keys map[topology.NodeID]*trust.Principal

	rng       *sim.RNG
	observers []Observer

	// cuts stacks the link sets failed by Partition events so Heal can
	// restore exactly what its partition cut (and nothing that was
	// already down for another reason).
	cuts [][][2]topology.NodeID

	// Applied counts events applied, by kind and in total.
	Applied sim.Counter

	events     *obs.Counter
	eventsKind map[Kind]*obs.Counter
	reg        *obs.Registry
}

// New builds an engine over net. All of the engine's randomness (and the
// per-link impairment generators it installs) forks from seed, so two
// engines at the same seed replay identically.
func New(net *netsim.Network, seed uint64) *Engine {
	return &Engine{Net: net, rng: sim.NewRNG(seed ^ 0xc4a05), Applied: sim.Counter{}}
}

// AttachObs enables fault-injection observability: counters of applied
// events, total and per kind. A nil registry disables again.
func (e *Engine) AttachObs(reg *obs.Registry) {
	e.reg = reg
	if reg == nil {
		e.events, e.eventsKind = nil, nil
		return
	}
	e.events = reg.Counter("chaos.events")
	e.eventsKind = make(map[Kind]*obs.Counter)
}

// Observe registers an observer for every subsequently applied fault.
func (e *Engine) Observe(o Observer) { e.observers = append(e.observers, o) }

// Schedule validates the plan against the engine's topology and arms one
// scheduler event per plan entry. The plan's seed is mixed into the
// engine RNG stream used for impairments installed by this plan.
func (e *Engine) Schedule(p *Plan) error {
	if err := p.Validate(); err != nil {
		return err
	}
	for i := range p.Events {
		if err := e.check(&p.Events[i]); err != nil {
			return fmt.Errorf("chaos: event %d (%s): %w", i, p.Events[i].Kind, err)
		}
	}
	for i := range p.Events {
		ev := p.Events[i]
		e.Net.Sched.At(ev.At(), func() { e.apply(ev) })
	}
	return nil
}

// check verifies an event's topology references at schedule time, so a
// bad plan fails before the simulation starts instead of mid-run.
func (e *Engine) check(ev *Event) error {
	g := e.Net.Graph
	node := func(id topology.NodeID) error {
		if _, ok := g.Nodes[id]; !ok {
			return fmt.Errorf("node %d not in topology", id)
		}
		return nil
	}
	link := func() error {
		if err := node(ev.A); err != nil {
			return err
		}
		if err := node(ev.B); err != nil {
			return err
		}
		if _, ok := g.LinkBetween(ev.A, ev.B); !ok {
			return fmt.Errorf("no link %d-%d in topology", ev.A, ev.B)
		}
		return nil
	}
	switch ev.Kind {
	case LinkDown, LinkUp, LinkFlap, Impair, ClearImpair:
		return link()
	case NodeCrash, NodeRecover:
		return node(ev.Node)
	case Partition:
		for _, id := range ev.Group {
			if err := node(id); err != nil {
				return err
			}
		}
	case ByzantineBurst:
		if e.AdDB == nil {
			return fmt.Errorf("byzantine-burst needs an AdDatabase bound to the engine")
		}
		return node(ev.Node)
	}
	return nil
}

// apply executes one event against the network, then notifies observers.
func (e *Engine) apply(ev Event) {
	now := e.Net.Sched.Now()
	switch ev.Kind {
	case LinkDown:
		e.Net.FailLink(ev.A, ev.B)
	case LinkUp:
		e.Net.RestoreLink(ev.A, ev.B)
	case LinkFlap:
		// Apply the first toggle now and schedule the rest; each toggle
		// records and notifies as a synthetic LinkDown/LinkUp (observers
		// need no flap-specific handling), so the flap itself is not
		// re-recorded below.
		down := !e.Net.LinkFailed(ev.A, ev.B)
		e.toggleLink(ev, down)
		for i := 1; i < ev.Count; i++ {
			d := down == (i%2 == 0)
			e.Net.Sched.At(now+sim.Time(i)*ev.Period(), func() { e.toggleLink(ev, d) })
		}
		return
	case NodeCrash:
		e.Net.FailNode(ev.Node)
	case NodeRecover:
		e.Net.RecoverNode(ev.Node)
	case Partition:
		e.partition(ev.Group)
	case Heal:
		e.heal()
	case Impair:
		e.Net.ImpairLink(ev.A, ev.B, netsim.LinkImpairment{
			Corrupt:       ev.Corrupt,
			Duplicate:     ev.Duplicate,
			ReorderProb:   ev.ReorderProb,
			ReorderJitter: msToTime(ev.ReorderJitterMs),
		}, e.rng.Fork())
	case ClearImpair:
		e.Net.ClearImpairment(ev.A, ev.B)
	case ByzantineBurst:
		for i := 0; i < ev.Count; i++ {
			ad := linkstate.LiarAdvertisement(e.Net.Graph, ev.Node, ev.Cost, ev.Phantoms)
			if p := e.Keys[ev.Node]; p != nil {
				ad.Sign(p)
			}
			e.AdDB.Flood(ad)
		}
	}
	e.record(ev, now)
}

// toggleLink is one flap transition, delivered to observers as a
// synthetic LinkDown/LinkUp so they need no flap-specific handling.
func (e *Engine) toggleLink(ev Event, down bool) {
	kind := LinkUp
	if down {
		kind = LinkDown
		e.Net.FailLink(ev.A, ev.B)
	} else {
		e.Net.RestoreLink(ev.A, ev.B)
	}
	e.record(Event{AtMs: ev.AtMs, Kind: kind, A: ev.A, B: ev.B}, e.Net.Sched.Now())
}

// partition fails every link crossing the group boundary, remembering
// which links it actually cut.
func (e *Engine) partition(group []topology.NodeID) {
	in := make(map[topology.NodeID]bool, len(group))
	for _, id := range group {
		in[id] = true
	}
	var cut [][2]topology.NodeID
	for _, l := range e.Net.Graph.Links {
		if in[l.A] == in[l.B] || e.Net.LinkFailed(l.A, l.B) {
			continue
		}
		e.Net.FailLink(l.A, l.B)
		cut = append(cut, [2]topology.NodeID{l.A, l.B})
	}
	e.cuts = append(e.cuts, cut)
}

// heal restores the most recent partition's cut set. A heal with no
// outstanding partition is a no-op.
func (e *Engine) heal() {
	if len(e.cuts) == 0 {
		return
	}
	cut := e.cuts[len(e.cuts)-1]
	e.cuts = e.cuts[:len(e.cuts)-1]
	for _, lk := range cut {
		e.Net.RestoreLink(lk[0], lk[1])
	}
}

// record counts the applied event and fans it out to observers.
func (e *Engine) record(ev Event, now sim.Time) {
	e.Applied.Inc(string(ev.Kind))
	e.Applied.Inc("total")
	if e.events != nil {
		e.events.Inc()
		c, ok := e.eventsKind[ev.Kind]
		if !ok {
			c = e.reg.Counter("chaos.events." + string(ev.Kind))
			e.eventsKind[ev.Kind] = c
		}
		c.Inc()
	}
	for _, o := range e.observers {
		o.Fault(ev, now)
	}
}
