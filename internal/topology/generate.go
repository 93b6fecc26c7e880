package topology

import (
	"slices"

	"repro/internal/sim"
)

// HierarchyConfig parameterizes the standard three-tier internetwork
// generator: a tier-1 clique of settlement-free peers, tier-2 regional
// ISPs multihomed to tier-1s, and stub edge networks attached to one or
// two tier-2s.
type HierarchyConfig struct {
	// Tier1 is the size of the core clique (>= 1).
	Tier1 int
	// Tier2 is the number of regional transit ISPs.
	Tier2 int
	// Stubs is the number of edge networks.
	Stubs int
	// MultihomeProb is the probability a tier-2 or stub buys transit
	// from a second upstream — the consumer-side choice point of §V-A1.
	MultihomeProb float64
	// PeerProb is the probability two tier-2 ISPs peer directly.
	PeerProb float64
	// BaseLatency is the per-link propagation delay mean.
	BaseLatency sim.Time
}

// DefaultHierarchy is a small but non-trivial internetwork used by
// examples and tests.
func DefaultHierarchy() HierarchyConfig {
	return HierarchyConfig{
		Tier1:         3,
		Tier2:         6,
		Stubs:         12,
		MultihomeProb: 0.4,
		PeerProb:      0.3,
		BaseLatency:   5 * sim.Millisecond,
	}
}

// GenerateHierarchy builds a connected three-tier topology. Node IDs are
// assigned in tier order starting at 1 (ID 0 is reserved as "none").
func GenerateHierarchy(cfg HierarchyConfig, rng *sim.RNG) *Graph {
	if cfg.Tier1 < 1 {
		cfg.Tier1 = 1
	}
	g := NewGraph()
	next := NodeID(1)
	lat := func() sim.Time {
		if cfg.BaseLatency == 0 {
			cfg.BaseLatency = 5 * sim.Millisecond
		}
		jitter := sim.Time(rng.Range(0.5, 1.5) * float64(cfg.BaseLatency))
		return jitter
	}
	cost := func() float64 { return rng.Range(1, 10) }

	var tier1, tier2 []NodeID
	for i := 0; i < cfg.Tier1; i++ {
		g.AddNode(next, Transit, 1)
		tier1 = append(tier1, next)
		next++
	}
	// Tier-1 full mesh of peers.
	for i := 0; i < len(tier1); i++ {
		for j := i + 1; j < len(tier1); j++ {
			g.AddLink(tier1[i], tier1[j], PeerOf, lat(), cost())
		}
	}
	for i := 0; i < cfg.Tier2; i++ {
		g.AddNode(next, Transit, 2)
		tier2 = append(tier2, next)
		// Every tier-2 buys transit from at least one tier-1.
		up := tier1[rng.Intn(len(tier1))]
		g.AddLink(next, up, CustomerOf, lat(), cost())
		if rng.Bool(cfg.MultihomeProb) && len(tier1) > 1 {
			second := tier1[rng.Intn(len(tier1))]
			if second == up {
				second = tier1[(slices.Index(tier1, up)+1)%len(tier1)]
			}
			g.AddLink(next, second, CustomerOf, lat(), cost())
		}
		next++
	}
	// Tier-2 peering.
	for i := 0; i < len(tier2); i++ {
		for j := i + 1; j < len(tier2); j++ {
			if rng.Bool(cfg.PeerProb) {
				g.AddLink(tier2[i], tier2[j], PeerOf, lat(), cost())
			}
		}
	}
	upstreams := tier2
	if len(upstreams) == 0 {
		upstreams = tier1
	}
	for i := 0; i < cfg.Stubs; i++ {
		g.AddNode(next, Stub, 3)
		up := upstreams[rng.Intn(len(upstreams))]
		g.AddLink(next, up, CustomerOf, lat(), cost())
		if rng.Bool(cfg.MultihomeProb) && len(upstreams) > 1 {
			second := upstreams[rng.Intn(len(upstreams))]
			if second == up {
				second = upstreams[(slices.Index(upstreams, up)+1)%len(upstreams)]
			}
			g.AddLink(next, second, CustomerOf, lat(), cost())
		}
		next++
	}
	return g
}

// GenerateScaleFree builds a connected Barabási–Albert-style topology of
// n nodes by preferential attachment: the graph starts as a clique of
// m+1 seed nodes, and every later node attaches m links to existing
// nodes chosen with probability proportional to their current degree.
// The resulting degree distribution is heavy-tailed — a few well-attached
// hubs and many leaves — which is the shape real AS graphs have, and what
// the scale benchmarks exercise so hub contention is represented.
//
// Node IDs are assigned densely starting at 1 (ID 0 stays reserved as
// "none", matching GenerateHierarchy). Each attachment link is
// CustomerOf from the new node's perspective (the newcomer buys transit
// from the established node). Nodes that end up providing transit
// (degree above m) are Transit tier 2, the seed clique is Transit
// tier 1, and pure leaves are Stubs tier 3. Link latency is jittered
// around 2ms and cost around [1,10) from the caller's rng, so the graph
// is a pure function of (n, m, rng state). The graph is connected by
// construction: every node attaches to an earlier one.
//
// The graph is sized once: the node map for n entries, the n Nodes in
// one slice and Links at its exact final length, m(m+1)/2 clique links
// and m for each later node, so generating it leaves no outgrown array
// behind. Every node and link still passes AddNode's and AddLink's
// checks.
func GenerateScaleFree(n, m int, rng *sim.RNG) *Graph {
	if m < 1 {
		m = 1
	}
	if n < m+1 {
		n = m + 1
	}
	const baseLatency = 2 * sim.Millisecond
	lat := func() sim.Time {
		return sim.Time(rng.Range(0.5, 1.5) * float64(baseLatency))
	}
	cost := func() float64 { return rng.Range(1, 10) }

	links := m*(m+1)/2 + (n-m-1)*m
	g := &Graph{Nodes: make(map[NodeID]*Node, n), Links: make([]Link, 0, links)}
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{Kind: Transit, Tier: 2}
		g.addNode(NodeID(i+1), &nodes[i])
	}
	// targets is the repeated-endpoint list: each node appears once per
	// unit of degree, so a uniform draw from it is degree-preferential.
	targets := make([]NodeID, 0, 2*links)
	// Seed clique of m+1 nodes.
	seed := m + 1
	for i := 1; i <= seed; i++ {
		nodes[i-1].Tier = 1
		for j := i + 1; j <= seed; j++ {
			g.AddLink(NodeID(i), NodeID(j), PeerOf, lat(), cost())
			targets = append(targets, NodeID(i), NodeID(j))
		}
	}
	picked := make([]NodeID, 0, m)
	for v := seed + 1; v <= n; v++ {
		picked = picked[:0]
		for len(picked) < m {
			t := targets[rng.Intn(len(targets))]
			dup := false
			for _, p := range picked {
				if p == t {
					dup = true
					break
				}
			}
			if !dup {
				picked = append(picked, t)
			}
		}
		for _, t := range picked {
			g.AddLink(NodeID(v), t, CustomerOf, lat(), cost())
			targets = append(targets, NodeID(v), t)
		}
	}
	// Classify: nodes that only hold their own m attachments are leaves.
	deg := make([]int, n+1)
	for _, l := range g.Links {
		deg[l.A]++
		deg[l.B]++
	}
	for i := seed + 1; i <= n; i++ {
		if deg[i] <= m {
			nodes[i-1].Kind = Stub
			nodes[i-1].Tier = 3
		}
	}
	return g
}

// Linear builds a simple chain topology a-b-c-... of transit nodes with
// customer-of relationships pointing left-to-right providers; useful for
// focused unit tests.
func Linear(n int, latency sim.Time) *Graph {
	g := NewGraph()
	for i := 1; i <= n; i++ {
		g.AddNode(NodeID(i), Transit, 1)
	}
	for i := 1; i < n; i++ {
		g.AddLink(NodeID(i), NodeID(i+1), CustomerOf, latency, 1)
	}
	return g
}
