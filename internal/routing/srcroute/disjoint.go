package srcroute

import (
	"repro/internal/sim"
	"repro/internal/topology"
)

// DisjointPaths finds up to k mutually link-disjoint paths from src to
// dst, each at most maxLen nodes, ordered by discovery (non-decreasing
// latency). It is the route-discovery half of "design for choice"
// (§IV-B): a multipath sender that stripes over link-disjoint routes
// keeps a live path under any single-link failure the disjoint set
// covers.
//
// The search is greedy successive-shortest-path extraction: a
// lowest-latency search (topology.ShortestPaths) over the links not yet
// claimed by an earlier path, claim the winning path's links, repeat.
// It never looks at business relationships, so paths need not be
// valley-free. Greedy extraction is not guaranteed to find the maximum
// disjoint set on adversarial graphs, but it is deterministic (ties
// settle by NodeID), each successive path is the shortest the remaining
// graph admits, and on provider hierarchies it finds the disjoint set
// that exists. When fewer than k disjoint paths exist the result is
// simply shorter — callers degrade to the paths they get, down to one
// (or zero when src and dst are disconnected, equal, or absent from the
// graph).
func DisjointPaths(g *topology.Graph, src, dst topology.NodeID, k, maxLen int) []Candidate {
	if maxLen <= 0 {
		maxLen = 8
	}
	if k <= 0 {
		k = 2
	}
	if src == dst {
		return nil
	}
	if _, ok := g.Nodes[src]; !ok {
		return nil
	}
	if _, ok := g.Nodes[dst]; !ok {
		return nil
	}
	claimed := map[[2]topology.NodeID]bool{}
	var sp topology.ShortestPaths
	var out []Candidate
	for len(out) < k {
		path, lat := shortestAvoiding(g, &sp, src, dst, claimed)
		if path == nil || len(path) > maxLen {
			// Removing links only lengthens shortest paths, so the first
			// miss (disconnected or over the length bound) is final.
			break
		}
		if out == nil {
			// Each path leaves src on a link of its own.
			out = make([]Candidate, 0, min(k, len(g.Neighbors(src))))
		}
		out = append(out, Candidate{Path: path, Latency: lat})
		for i := 1; i < len(path); i++ {
			claimed[linkKey(path[i-1], path[i])] = true
		}
	}
	return out
}

// linkKey is the undirected link identity.
func linkKey(a, b topology.NodeID) [2]topology.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]topology.NodeID{a, b}
}

// shortestAvoiding searches from src to dst over the links not in
// claimed, minimizing summed latency. Latencies are integer nanoseconds,
// exact as float64 sums below 2^53 ns (about 104 days).
func shortestAvoiding(g *topology.Graph, sp *topology.ShortestPaths, src, dst topology.NodeID, claimed map[[2]topology.NodeID]bool) ([]topology.NodeID, sim.Time) {
	sp.Reset(src)
	for u, d, ok := sp.Next(); ok; u, d, ok = sp.Next() {
		if u == dst {
			return sp.Path(dst), sim.Time(d)
		}
		for _, v := range g.Neighbors(u) {
			if l, ok := g.LinkBetween(u, v); ok && !claimed[linkKey(u, v)] {
				sp.Relax(v, float64(l.Latency))
			}
		}
	}
	return nil, 0 // frontier exhausted: dst unreachable
}
