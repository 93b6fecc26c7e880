// Package linkstate implements an OSPF-style link-state routing protocol
// for the simulated internetwork: every node floods its link costs, every
// node runs the same shortest-path search (topology.ShortestPaths, which
// every router in the repository shares) over the identical database,
// and — the property that matters for the tussle analysis of §IV-C —
// every node's cost choices are public. Database holds the true costs
// and AdDatabase the advertised ones (see byzantine.go); both give the
// search only their edges and costs. Contrast with the path-vector
// protocol in the sibling package, which reveals only chosen paths.
package linkstate

import (
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/topology"
)

// Database is the flooded link-state database: the complete, public view
// of the network's links and costs.
//
// A Database reuses one shortest-path search across SPF and Compute
// calls, so it must not be shared across goroutines. Parallelism in this
// repository is across independent simulations, each with its own
// Database (see experiments.RunAll).
type Database struct {
	spf
	// Overrides lets a node advertise a different cost on a link
	// (traffic engineering — a visible tussle move).
	Overrides map[[2]topology.NodeID]float64
}

// spf is what both databases keep to run SPF: the graph, the search
// reused across runs, and the route-computation metrics (nil means
// disabled).
type spf struct {
	g          *topology.Graph
	search     topology.ShortestPaths
	spfRuns    *obs.Counter
	spfSettled *obs.Histogram
}

// NewDatabase builds a database over the topology.
func NewDatabase(g *topology.Graph) *Database {
	return &Database{spf: spf{g: g}, Overrides: make(map[[2]topology.NodeID]float64)}
}

// AttachObs enables route-computation observability: a counter of SPF
// runs and the distribution of nodes settled per run (the convergence
// work a cost change triggers). A nil registry disables again.
func (db *Database) AttachObs(reg *obs.Registry) { db.attachObs(reg) }

func (s *spf) attachObs(reg *obs.Registry) {
	if reg == nil {
		s.spfRuns, s.spfSettled = nil, nil
		return
	}
	s.spfRuns = reg.Counter("routing.linkstate.spf_runs")
	s.spfSettled = reg.Histogram("routing.linkstate.spf_settled", obs.CountBuckets)
}

// tables ends an SPF run: it records the run and returns the search's
// next-hop table.
func (s *spf) tables() map[topology.NodeID]topology.NodeID {
	next := s.search.Tables()
	if s.spfRuns != nil {
		s.spfRuns.Inc()
		// Every settled node has a next hop but the source.
		s.spfSettled.Observe(float64(len(next) + 1))
	}
	return next
}

func (s *spf) graph() *topology.Graph { return s.g }

// SetCost overrides the advertised cost of the directed edge a→b.
func (db *Database) SetCost(a, b topology.NodeID, cost float64) {
	db.Overrides[[2]topology.NodeID{a, b}] = cost
}

// Cost returns the advertised cost of the directed edge a→b.
func (db *Database) Cost(a, b topology.NodeID) (float64, bool) {
	if c, ok := db.Overrides[[2]topology.NodeID{a, b}]; ok {
		return c, true
	}
	l, ok := db.g.LinkBetween(a, b)
	if !ok {
		return 0, false
	}
	return l.Cost, true
}

// VisibleChoices reports every (edge, cost) pair any observer can read
// from the database — the §IV-C "visibility of choices" audit surface.
// The count equals twice the number of links (both directions).
func (db *Database) VisibleChoices() int {
	n := 0
	for _, id := range db.g.NodeIDs() {
		n += len(db.g.Neighbors(id))
	}
	return n
}

// SPF runs the shortest-path search from src over the database's costs
// and returns the next hop to every reachable destination. A negative
// cost (how chaos masks a failed link) is no edge.
func (db *Database) SPF(src topology.NodeID) map[topology.NodeID]topology.NodeID {
	sp := &db.search
	sp.Reset(src)
	for u, _, ok := sp.Next(); ok; u, _, ok = sp.Next() {
		for _, v := range db.g.Neighbors(u) {
			if c, ok := db.Cost(u, v); ok {
				sp.Relax(v, c)
			}
		}
	}
	return db.tables()
}

// Table is a computed forwarding table for one node.
type Table struct {
	Src  topology.NodeID
	Next map[topology.NodeID]topology.NodeID
}

// Compute builds a forwarding table for every node of the graph from
// db's SPF; db is a *Database or an *AdDatabase.
func Compute(db interface {
	SPF(topology.NodeID) map[topology.NodeID]topology.NodeID
	graph() *topology.Graph
}) map[topology.NodeID]*Table {
	ids := db.graph().NodeIDs()
	out := make(map[topology.NodeID]*Table, len(ids))
	for _, id := range ids {
		out[id] = &Table{Src: id, Next: db.SPF(id)}
	}
	return out
}

// RouteFunc adapts a table to the simulator's routing hook.
func (t *Table) RouteFunc() func(dst packet.Addr, tip *packet.TIP) (topology.NodeID, bool) {
	return func(dst packet.Addr, tip *packet.TIP) (topology.NodeID, bool) {
		d := topology.NodeID(dst.Provider())
		if d == t.Src {
			return t.Src, true
		}
		nh, ok := t.Next[d]
		return nh, ok
	}
}
