// Package core implements the paper's primary contribution as an
// executable framework: tussle as a first-class design object. It
// provides
//
//   - a model of stakeholders, mechanisms, and tussle spaces;
//   - a run-time tussle engine — rounds of adaptive move/counter-move
//     between stakeholders, the §II observation that "tussle occurs at
//     run time" made operational;
//   - analyzers for the paper's two design principles: design for choice
//     (§IV-B — count and locate the choice points each party holds) and
//     modularize along tussle boundaries (§IV-A — measure how mechanisms
//     couple tussle spaces, and thus where one tussle can distort
//     another);
//   - outcome metrics: control balance between parties, architectural
//     distortion, and visibility of choices (§IV-C).
package core

import (
	"fmt"
	"sort"
)

// Kind classifies stakeholders, mirroring the §I inventory.
type Kind uint8

// Stakeholder kinds.
const (
	User Kind = iota
	ISP
	PrivateNetwork
	Government
	RightsHolder
	ContentProvider
)

func (k Kind) String() string {
	switch k {
	case User:
		return "user"
	case ISP:
		return "isp"
	case PrivateNetwork:
		return "private-network"
	case Government:
		return "government"
	case RightsHolder:
		return "rights-holder"
	default:
		return "content-provider"
	}
}

// Space names a tussle space ("economics", "trust", "openness", or any
// finer-grained arena an experiment defines).
type Space string

// Mechanism is a deployed artifact in the tussle: a protocol feature, a
// middlebox, a pricing rule, a law. Mechanisms are what stakeholders
// "adapt ... to try to achieve their conflicting goals" (§I).
type Mechanism struct {
	Name  string
	Owner string
	// Distortion marks a move that works by violating the design —
	// tunneling to evade classification, overloading a field, kludging
	// a protocol. The paper's principle is that good designs let the
	// tussle happen *within* them, "not by distorting or violating
	// them" (§IV).
	Distortion bool
	// Visible reports whether the mechanism reveals itself and its
	// choices to affected parties (§IV-C: "it matters if choices and
	// the consequence of choices are visible").
	Visible bool
	// Couples lists the tussle spaces other than its own that this
	// mechanism conditions on — isolation violations in the §IV-A sense
	// (e.g. a QoS mechanism reading application ports couples "qos" to
	// "apps").
	Couples []Space
}

// State is the engine's public state handed to strategies.
type State struct {
	Round      int
	Mechanisms map[string]*Mechanism
}

// mechanismNames returns deployed mechanism names in sorted order.
func (s *State) mechanismNames() []string {
	out := make([]string, 0, len(s.Mechanisms))
	for n := range s.Mechanisms {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Has reports whether a mechanism is deployed.
func (s *State) Has(name string) bool {
	_, ok := s.Mechanisms[name]
	return ok
}

// Move is one stakeholder action in a round: deploy a mechanism,
// withdraw one, or both nil to pass.
type Move struct {
	Deploy   *Mechanism
	Withdraw string
	// Note annotates the history ("escalate", "comply", ...).
	Note string
}

// Strategy decides a stakeholder's move each round. A nil return passes.
type Strategy func(self *Stakeholder, st *State) *Move

// Stakeholder is one party to the tussle.
type Stakeholder struct {
	Name string
	Kind Kind
	// Utility accumulates across rounds.
	Utility float64
	Strat   Strategy
}

// PayoffFunc scores the current mechanism configuration: it returns each
// stakeholder's per-round utility. This is where a scenario encodes the
// domain (prices, blocked traffic, court rulings...).
type PayoffFunc func(st *State) map[string]float64

// HistoryEntry records one applied move.
type HistoryEntry struct {
	Round int
	Actor string
	Move  Move
}

// Engine runs the tussle.
type Engine struct {
	Stakeholders []*Stakeholder
	Payoff       PayoffFunc

	state   State
	History []HistoryEntry

	// Distortions counts deployed distortion mechanisms over time
	// (each deploy counts once).
	Distortions int
}

// NewEngine assembles an engine with an empty mechanism configuration.
func NewEngine(payoff PayoffFunc, stakeholders ...*Stakeholder) *Engine {
	return &Engine{
		Stakeholders: stakeholders,
		Payoff:       payoff,
		state:        State{Mechanisms: make(map[string]*Mechanism)},
	}
}

// State exposes the current state (read-only by convention).
func (e *Engine) State() *State { return &e.state }

// Deploy installs a mechanism directly (scenario setup).
func (e *Engine) Deploy(m *Mechanism) {
	if m == nil {
		return
	}
	e.state.Mechanisms[m.Name] = m
	if m.Distortion {
		e.Distortions++
	}
}

// Withdraw removes a mechanism directly.
func (e *Engine) Withdraw(name string) {
	delete(e.state.Mechanisms, name)
}

// Step runs one tussle round: every stakeholder (in declaration order —
// deterministic) may move; then payoffs are recomputed and accumulated.
func (e *Engine) Step() {
	e.state.Round++
	for _, s := range e.Stakeholders {
		if s.Strat == nil {
			continue
		}
		mv := s.Strat(s, &e.state)
		if mv == nil {
			continue
		}
		if mv.Withdraw != "" {
			e.Withdraw(mv.Withdraw)
		}
		if mv.Deploy != nil {
			if mv.Deploy.Owner == "" {
				mv.Deploy.Owner = s.Name
			}
			e.Deploy(mv.Deploy)
		}
		e.History = append(e.History, HistoryEntry{Round: e.state.Round, Actor: s.Name, Move: *mv})
	}
	if e.Payoff != nil {
		payoffs := e.Payoff(&e.state)
		for _, s := range e.Stakeholders {
			s.Utility += payoffs[s.Name]
		}
	}
}

// Run executes n rounds.
func (e *Engine) Run(n int) {
	for i := 0; i < n; i++ {
		e.Step()
	}
}

// ControlBalance compares the accumulated utility of two coalitions
// (e.g. users vs providers): positive means the first coalition is
// winning the tussle. It is the paper's "balance of power" made a
// number.
func (e *Engine) ControlBalance(a, b Kind) float64 {
	var ua, ub float64
	var na, nb int
	for _, s := range e.Stakeholders {
		switch s.Kind {
		case a:
			ua += s.Utility
			na++
		case b:
			ub += s.Utility
			nb++
		}
	}
	if na > 0 {
		ua /= float64(na)
	}
	if nb > 0 {
		ub /= float64(nb)
	}
	return ua - ub
}

// Stable reports whether no stakeholder moved in the last k rounds — the
// (temporary) quiescence of a tussle. The paper holds that there is "no
// final outcome"; experiments use this to detect equilibria of specific
// scenarios.
func (e *Engine) Stable(k int) bool {
	if e.state.Round < k {
		return false
	}
	for _, h := range e.History {
		if h.Round > e.state.Round-k {
			return false
		}
	}
	return true
}

// Summary renders a one-line state description for logs.
func (e *Engine) Summary() string {
	return fmt.Sprintf("round=%d mechanisms=%v distortions=%d",
		e.state.Round, e.state.mechanismNames(), e.Distortions)
}
