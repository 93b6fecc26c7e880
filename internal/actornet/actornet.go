// Package actornet implements the actor-network model the paper draws
// from Latour and Callon (§II-A, §II-C): a network of human and nonhuman
// actors whose mutual alignment makes the whole socio-technical system
// durable. Two claims from the paper are made operational:
//
//   - "the network gets harder to change as it grows up": the probability
//     that an architectural change succeeds falls as alignment rises;
//   - "the entrance of new actors ... creates continuous churn in the
//     actor network, which keeps the actor network from becoming frozen":
//     each entrant perturbs the alignments around its attachment points,
//     and when entry stops the network freezes.
package actornet

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/sim"
)

// Network is the actor network. Its actors are human and nonhuman alike,
// and the model gives them "equal attention as shapers" (§II-A): no
// dynamics depend on which an actor is.
//
// Actors live in a slice in join order and are addressed by index; an
// alignment is one edge, and every edge's value is one slot of align, so
// a round of harmonization is a single pass over that slice. Names matter
// in two places only: the public methods take them, and the model's
// determinism rests on name order, which byName and order keep.
type Network struct {
	rng *sim.RNG
	// names holds each actor's name, in join order.
	names []string
	// byName lists the actor indices in ascending name order.
	byName []int32
	// partners lists each actor's alignment partners, indexed like names.
	partners [][]partner
	// align[e] in [0,1] measures the commitment across edge e.
	align []float64
	// order lists the edges ascending by (lesser name, greater name), the
	// order of a walk over actors by name and then partners by name.
	// Durability sums in this order: float addition is not associative,
	// so the order is part of the result.
	order []orderedEdge

	// HarmonizationRate is how fast aligned pairs converge per round.
	HarmonizationRate float64
	// Perturbation is how much a new entrant disturbs the alignments
	// around its attachment points.
	Perturbation float64

	// ChangesTried/ChangesWon track architectural change attempts.
	ChangesTried, ChangesWon int

	entrySeq int
}

// partner is one alignment seen from one of its actors: the other actor
// and the edge they share.
type partner struct{ actor, edge int32 }

// orderedEdge is an edge's entry in Network.order: its actors, the one
// whose name sorts first as lo, and the edge.
type orderedEdge struct{ lo, hi, edge int32 }

// New creates an empty network with the default dynamics.
func New(rng *sim.RNG) *Network {
	return &Network{
		rng:               rng,
		HarmonizationRate: 0.05,
		Perturbation:      0.35,
	}
}

// search returns name's position in byName, or where it would be
// inserted, and whether an actor has that name.
func (n *Network) search(name string) (int, bool) {
	return slices.BinarySearchFunc(n.byName, name, func(a int32, name string) int {
		return cmp.Compare(n.names[a], name)
	})
}

// AddActor inserts an actor; duplicate names panic (a wiring bug).
func (n *Network) AddActor(name string) {
	i, dup := n.search(name)
	if dup {
		panic(fmt.Sprintf("actornet: duplicate actor %q", name))
	}
	n.byName = slices.Insert(n.byName, i, int32(len(n.names)))
	n.names = append(n.names, name)
	n.partners = append(n.partners, nil)
}

// index returns the named actor's index, or -1 if there is none.
func (n *Network) index(name string) int32 {
	if i, ok := n.search(name); ok {
		return n.byName[i]
	}
	return -1
}

// Align sets the mutual alignment between two actors. An unknown name,
// or an actor aligned with itself, panics (a wiring bug).
func (n *Network) Align(a, b string, v float64) {
	ai, bi := n.index(a), n.index(b)
	switch {
	case ai < 0:
		panic(fmt.Sprintf("actornet: unknown actor %q", a))
	case bi < 0:
		panic(fmt.Sprintf("actornet: unknown actor %q", b))
	case ai == bi:
		panic(fmt.Sprintf("actornet: actor %q aligned with itself", a))
	}
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	n.link(ai, bi, v)
}

// edge returns the edge between actors a and b, or -1 if they are not
// partners.
func (n *Network) edge(a, b int32) int32 {
	for _, p := range n.partners[a] {
		if p.actor == b {
			return p.edge
		}
	}
	return -1
}

// link sets the alignment between actors a and b, making them partners
// if they are not yet.
func (n *Network) link(a, b int32, v float64) {
	if e := n.edge(a, b); e >= 0 {
		n.align[e] = v
		return
	}
	e := int32(len(n.align))
	n.align = append(n.align, v)
	n.partners[a] = append(n.partners[a], partner{b, e})
	n.partners[b] = append(n.partners[b], partner{a, e})
	key := orderedEdge{a, b, e}
	if n.names[b] < n.names[a] {
		key.lo, key.hi = b, a
	}
	i, _ := slices.BinarySearchFunc(n.order, key, func(x, key orderedEdge) int {
		if c := cmp.Compare(n.names[x.lo], n.names[key.lo]); c != 0 {
			return c
		}
		return cmp.Compare(n.names[x.hi], n.names[key.hi])
	})
	n.order = slices.Insert(n.order, i, key)
}

// Actors returns the actor names in deterministic (ascending) order.
func (n *Network) Actors() []string {
	out := make([]string, len(n.byName))
	for i, a := range n.byName {
		out[i] = n.names[a]
	}
	return out
}

// Durability is the mean alignment across all edges — the Latour
// "society made durable" metric. An edgeless network has durability 0.
func (n *Network) Durability() float64 {
	if len(n.order) == 0 {
		return 0
	}
	total := 0.0
	for _, o := range n.order {
		total += n.align[o.edge]
	}
	return total / float64(len(n.order))
}

// Step advances one round: aligned pairs harmonize toward full
// commitment, and with probability entryRate a new actor enters,
// attaching to a few existing actors and perturbing the alignments
// around them.
func (n *Network) Step(entryRate float64) {
	// Harmonization: all existing edges drift toward 1.
	r := n.HarmonizationRate
	for e, v := range n.align {
		n.align[e] = v + r*(1-v)
	}
	if n.rng.Bool(entryRate) && len(n.names) > 0 {
		n.enter()
	}
}

// enter admits a new actor, attaching it to up to three existing actors
// and perturbing their other relationships — fresh perspectives
// destabilize settled arrangements.
func (n *Network) enter() {
	n.entrySeq++
	// Which of human, technology or institution the entrant is changes
	// nothing in the model, but the draw is part of the seeded stream
	// every later draw follows.
	n.rng.Intn(3)
	n.AddActor(fmt.Sprintf("entrant-%d", n.entrySeq))
	self := int32(len(n.names) - 1)
	// The attachment points are drawn from the name-ordered actor list,
	// the entrant included (and skipped).
	existing := n.byName
	attach := min(3, len(existing)-1)
	attached := 0
	for _, idx := range n.rng.Perm(len(existing)) {
		target := existing[idx]
		if target == self {
			continue
		}
		n.link(self, target, n.rng.Range(0.05, 0.3))
		// The attachment point's other relationships loosen.
		for _, p := range n.partners[target] {
			if p.actor != self {
				n.align[p.edge] *= 1 - n.Perturbation
			}
		}
		attached++
		if attached >= attach {
			break
		}
	}
}

// AttemptChange models trying to change the architecture: success
// probability is 1 - Durability. The paper's paradox in one line —
// stability is valuable to society and frustrating to technologists.
func (n *Network) AttemptChange() bool {
	n.ChangesTried++
	if n.rng.Float64() < 1-n.Durability() {
		n.ChangesWon++
		return true
	}
	return false
}

// ChangeSuccessRate reports the empirical fraction of successful change
// attempts.
func (n *Network) ChangeSuccessRate() float64 {
	if n.ChangesTried == 0 {
		return 0
	}
	return float64(n.ChangesWon) / float64(n.ChangesTried)
}

// Frozen reports whether the network's durability exceeds the threshold
// — "a freezing of the actor network, and a freezing of the Internet"
// (§II-C).
func (n *Network) Frozen(threshold float64) bool {
	return n.Durability() >= threshold
}

// SeedInternet builds the canonical starting network the experiments
// use: protocols, ISPs, users, applications, and lawmakers, moderately
// aligned.
func SeedInternet(rng *sim.RNG) *Network {
	n := New(rng)
	n.AddActor("protocols")    // technology
	n.AddActor("isps")         // institution
	n.AddActor("users")        // human
	n.AddActor("applications") // technology
	n.AddActor("lawmakers")    // institution
	names := n.Actors()
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			n.Align(names[i], names[j], rng.Range(0.2, 0.5))
		}
	}
	return n
}
