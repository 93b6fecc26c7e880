// Package pathvector implements a BGP-style inter-domain routing protocol
// with Gao–Rexford business policies: route selection prefers routes
// through customers over peers over providers, and export rules keep a
// provider from giving free transit. This is the "provider control"
// design that won the policy-routing tussle of §V-A4; the package also
// records what is and is not visible to outsiders (§IV-C: "a path vector
// protocol makes it harder to see what the internal choices are").
package pathvector

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/topology"
)

// Route is one candidate path to a destination.
type Route struct {
	// Path is the AS path, first element = next hop, last = the
	// destination.
	Path []topology.NodeID
	// LearnedFrom classifies the neighbor the route came from.
	LearnedFrom topology.NeighborClass
	// LocalPref allows policy overrides beyond Gao–Rexford defaults.
	LocalPref int
}

// contains reports whether the path already visits n (loop prevention).
func (r Route) contains(n topology.NodeID) bool {
	for _, p := range r.Path {
		if p == n {
			return true
		}
	}
	return false
}

// better implements BGP-like decision: higher LocalPref, then
// customer > peer > provider, then shorter path, then lowest next hop.
func better(a, b Route) bool {
	if a.LocalPref != b.LocalPref {
		return a.LocalPref > b.LocalPref
	}
	// Lower NeighborClass value = customer, preferred.
	if a.LearnedFrom != b.LearnedFrom {
		return a.LearnedFrom < b.LearnedFrom
	}
	if len(a.Path) != len(b.Path) {
		return len(a.Path) < len(b.Path)
	}
	return a.Path[0] < b.Path[0]
}

// RIB holds a node's chosen routes.
type RIB struct {
	Node topology.NodeID
	Best map[topology.NodeID]Route
}

// Protocol is a converged path-vector computation.
type Protocol struct {
	G *topology.Graph
	// Prefer maps (node, dst) to a preferred next-hop neighbor; it
	// models operator policy overriding the defaults (a tussle move).
	Prefer map[[2]topology.NodeID]topology.NodeID
	// NoExportTo suppresses all exports from a node to a neighbor
	// (de-peering, a competitive move).
	NoExportTo map[[2]topology.NodeID]bool
	// Down marks links currently failed (key normalized low-ID-first) and
	// DownNodes marks crashed routers; Converge ignores both, so a
	// re-converge after updating them models the protocol reacting to a
	// fault. Nil maps mean a fully healthy topology.
	Down      map[[2]topology.NodeID]bool
	DownNodes map[topology.NodeID]bool

	RIBs map[topology.NodeID]*RIB
	// Iterations is how many rounds convergence took.
	Iterations int

	// obs instruments convergence; nil means disabled.
	convergeRuns *obs.Counter
	convergeIter *obs.Histogram
	routesHeld   *obs.Histogram
}

// AttachObs enables convergence observability: a counter of Converge
// calls, the distribution of iterations each took, and the distribution
// of RIB sizes after convergence. A nil registry disables again.
func (p *Protocol) AttachObs(reg *obs.Registry) {
	if reg == nil {
		p.convergeRuns, p.convergeIter, p.routesHeld = nil, nil, nil
		return
	}
	p.convergeRuns = reg.Counter("routing.pathvector.converge_runs")
	p.convergeIter = reg.Histogram("routing.pathvector.converge_iterations", obs.CountBuckets)
	p.routesHeld = reg.Histogram("routing.pathvector.rib_routes", obs.CountBuckets)
}

// New prepares a protocol instance over g.
func New(g *topology.Graph) *Protocol {
	return &Protocol{
		G:          g,
		Prefer:     make(map[[2]topology.NodeID]topology.NodeID),
		NoExportTo: make(map[[2]topology.NodeID]bool),
	}
}

// exportable applies Gao–Rexford export rules: a route learned from a
// customer is exported to everyone; a route learned from a peer or
// provider is exported only to customers. Own-origin routes go to all.
func (p *Protocol) exportable(r Route, toClass topology.NeighborClass) bool {
	if len(r.Path) == 0 {
		return true // own prefix
	}
	if r.LearnedFrom == topology.Customer {
		return true
	}
	return toClass == topology.Customer
}

// Converge runs synchronous Bellman-Ford-style iterations until no RIB
// changes. Gao–Rexford policies guarantee convergence; a safety valve
// caps iterations.
func (p *Protocol) Converge() error {
	ids := p.G.NodeIDs()
	p.RIBs = make(map[topology.NodeID]*RIB, len(ids))
	for _, id := range ids {
		best := map[topology.NodeID]Route{}
		// A crashed router originates nothing, not even its own prefix.
		if !p.DownNodes[id] {
			best[id] = Route{LearnedFrom: topology.Customer, LocalPref: 1 << 20}
		}
		p.RIBs[id] = &RIB{Node: id, Best: best}
	}
	maxIter := 4*len(ids) + 10
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for _, id := range ids {
			if p.DownNodes[id] {
				continue // crashed: learns nothing
			}
			rib := p.RIBs[id]
			for _, nb := range p.G.Neighbors(id) {
				if p.DownNodes[nb] || p.linkDown(id, nb) {
					continue // dead session: no routes cross it
				}
				nbClassAtNb, _ := p.G.RelFrom(nb, id) // what id is to nb
				if p.NoExportTo[[2]topology.NodeID{nb, id}] {
					continue
				}
				myClassOfNb, _ := p.G.RelFrom(id, nb) // what nb is to id
				nbRIB := p.RIBs[nb]
				for dst, r := range nbRIB.Best {
					if dst == id || r.contains(id) {
						continue
					}
					if !p.exportable(r, nbClassAtNb) {
						continue
					}
					cand := Route{
						Path:        append([]topology.NodeID{nb}, r.Path...),
						LearnedFrom: myClassOfNb,
					}
					if p.Prefer[[2]topology.NodeID{id, dst}] == nb {
						cand.LocalPref = 100
					}
					cur, ok := rib.Best[dst]
					if !ok || better(cand, cur) {
						// Replacing an equal-path route with itself is
						// not a change.
						if ok && samePath(cur, cand) {
							continue
						}
						rib.Best[dst] = cand
						changed = true
					}
				}
			}
		}
		if !changed {
			p.Iterations = iter + 1
			if p.convergeRuns != nil {
				p.convergeRuns.Inc()
				p.convergeIter.Observe(float64(p.Iterations))
				for _, rib := range p.RIBs {
					p.routesHeld.Observe(float64(len(rib.Best)))
				}
			}
			return nil
		}
	}
	return fmt.Errorf("pathvector: no convergence after %d iterations", maxIter)
}

// linkDown reports whether the a–b link is marked failed.
func (p *Protocol) linkDown(a, b topology.NodeID) bool {
	if p.Down == nil {
		return false
	}
	if a > b {
		a, b = b, a
	}
	return p.Down[[2]topology.NodeID{a, b}]
}

// MarkLink sets or clears the failed flag for the a–b link.
func (p *Protocol) MarkLink(a, b topology.NodeID, down bool) {
	if a > b {
		a, b = b, a
	}
	if p.Down == nil {
		p.Down = make(map[[2]topology.NodeID]bool)
	}
	if down {
		p.Down[[2]topology.NodeID{a, b}] = true
	} else {
		delete(p.Down, [2]topology.NodeID{a, b})
	}
}

// MarkNode sets or clears the crashed flag for a router.
func (p *Protocol) MarkNode(id topology.NodeID, down bool) {
	if p.DownNodes == nil {
		p.DownNodes = make(map[topology.NodeID]bool)
	}
	if down {
		p.DownNodes[id] = true
	} else {
		delete(p.DownNodes, id)
	}
}

func samePath(a, b Route) bool {
	if len(a.Path) != len(b.Path) || a.LearnedFrom != b.LearnedFrom || a.LocalPref != b.LocalPref {
		return false
	}
	for i := range a.Path {
		if a.Path[i] != b.Path[i] {
			return false
		}
	}
	return true
}

// RouteFunc adapts a node's RIB to the simulator's routing hook.
func (p *Protocol) RouteFunc(id topology.NodeID) func(dst packet.Addr, tip *packet.TIP) (topology.NodeID, bool) {
	rib := p.RIBs[id]
	return func(dst packet.Addr, tip *packet.TIP) (topology.NodeID, bool) {
		d := topology.NodeID(dst.Provider())
		if d == id {
			return id, true
		}
		r, ok := rib.Best[d]
		if !ok || len(r.Path) == 0 {
			return 0, false
		}
		return r.Path[0], true
	}
}

// Path returns the full AS path node→dst, or nil if unreachable.
func (p *Protocol) Path(node, dst topology.NodeID) []topology.NodeID {
	r, ok := p.RIBs[node].Best[dst]
	if !ok {
		return nil
	}
	return append([]topology.NodeID{node}, r.Path...)
}

// VisibleChoices reports what an outside observer can learn from this
// protocol: one chosen path per (node, dst) pair — no costs, no
// alternatives, no reasons. Compare with linkstate.Database.VisibleChoices.
func (p *Protocol) VisibleChoices() int {
	n := 0
	for _, rib := range p.RIBs {
		n += len(rib.Best) - 1 // exclude self-route
	}
	return n
}

// CheckGaoRexford verifies the converged routes respect valley-free
// export: no route crosses peer→peer→... or provider→customer→provider
// valleys. Returns the number of violations (0 when safe).
func (p *Protocol) CheckGaoRexford() int {
	violations := 0
	for _, rib := range p.RIBs {
		for _, r := range rib.Best {
			full := append([]topology.NodeID{rib.Node}, r.Path...)
			if !valleyFree(p.G, full) {
				violations++
			}
		}
	}
	return violations
}

// valleyFree checks the classic pattern: a path must be a sequence of
// customer→provider ("up") edges, at most one peer edge, then
// provider→customer ("down") edges.
func valleyFree(g *topology.Graph, path []topology.NodeID) bool {
	if len(path) < 2 {
		return true
	}
	const (
		up = iota
		peered
		down
	)
	state := up
	for i := 0; i+1 < len(path); i++ {
		cls, ok := g.RelFrom(path[i], path[i+1])
		if !ok {
			return false
		}
		switch cls {
		case topology.Provider: // going up
			if state != up {
				return false
			}
		case topology.Peer:
			if state != up {
				return false
			}
			state = peered
		case topology.Customer: // going down
			state = down
		}
	}
	return true
}
