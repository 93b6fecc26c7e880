package topology

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/sim"
)

func graphDigest(g *Graph) string {
	out := fmt.Sprintf("nodes=%d links=%d\n", len(g.Nodes), len(g.Links))
	for _, id := range g.NodeIDs() {
		nd := g.Nodes[id]
		out += fmt.Sprintf("n%d kind=%d tier=%d\n", id, nd.Kind, nd.Tier)
	}
	for _, l := range g.Links {
		out += fmt.Sprintf("l %d-%d rel=%d lat=%d cost=%g\n", l.A, l.B, l.Rel, l.Latency, l.Cost)
	}
	return out
}

// TestScaleFreeDeterministic: same (n, m, seed) must produce the exact
// same graph — nodes, kinds, tiers, links, latencies, costs.
func TestScaleFreeDeterministic(t *testing.T) {
	for _, seed := range []uint64{1, 42, 7} {
		a := GenerateScaleFree(500, 2, sim.NewRNG(seed))
		b := GenerateScaleFree(500, 2, sim.NewRNG(seed))
		if graphDigest(a) != graphDigest(b) {
			t.Fatalf("seed %d: two generations differ", seed)
		}
	}
	a := GenerateScaleFree(500, 2, sim.NewRNG(1))
	b := GenerateScaleFree(500, 2, sim.NewRNG(2))
	if graphDigest(a) == graphDigest(b) {
		t.Fatal("different seeds produced identical graphs")
	}
}

// TestScaleFreeConnected: BA attachment always links a new node to an
// earlier one, so the graph must be one component at any size.
func TestScaleFreeConnected(t *testing.T) {
	for _, tc := range []struct{ n, m int }{{5, 1}, {50, 2}, {500, 3}, {2000, 2}} {
		g := GenerateScaleFree(tc.n, tc.m, sim.NewRNG(42))
		if len(g.Nodes) != tc.n {
			t.Fatalf("n=%d m=%d: got %d nodes", tc.n, tc.m, len(g.Nodes))
		}
		seen := map[NodeID]bool{1: true}
		queue := []NodeID{1}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, nb := range g.Neighbors(v) {
				if !seen[nb] {
					seen[nb] = true
					queue = append(queue, nb)
				}
			}
		}
		if len(seen) != tc.n {
			t.Errorf("n=%d m=%d: only %d of %d nodes reachable from 1", tc.n, tc.m, len(seen), tc.n)
		}
	}
}

// TestScaleFreeSizedOnce: the generator sizes its graph once. Links ends
// at exactly its capacity, whatever (n, m), and 100k nodes allocate a
// few hundred objects, the node map's and a handful of slices, not one
// per node.
func TestScaleFreeSizedOnce(t *testing.T) {
	for _, tc := range []struct{ n, m int }{{1, 0}, {2, 3}, {5, 1}, {50, 2}, {500, 3}} {
		g := GenerateScaleFree(tc.n, tc.m, sim.NewRNG(42))
		if len(g.Links) != cap(g.Links) {
			t.Errorf("n=%d m=%d: %d links in a slice of capacity %d", tc.n, tc.m, len(g.Links), cap(g.Links))
		}
	}
	allocs := testing.AllocsPerRun(1, func() { GenerateScaleFree(100_000, 2, sim.NewRNG(42)) })
	if allocs >= 1000 {
		t.Errorf("generating 100k nodes allocated %v objects, want fewer than 1000", allocs)
	}
}

// TestScaleFreeShape: the degree distribution should be heavy-tailed —
// a hub far above the mean degree — and leaves must be classified Stub.
func TestScaleFreeShape(t *testing.T) {
	const n, m = 2000, 2
	g := GenerateScaleFree(n, m, sim.NewRNG(42))
	deg := map[NodeID]int{}
	for _, l := range g.Links {
		deg[l.A]++
		deg[l.B]++
	}
	maxDeg := 0
	for _, d := range deg {
		if d > maxDeg {
			maxDeg = d
		}
	}
	// Mean degree is ~2m; a BA hub at n=2000 should be an order of
	// magnitude above it.
	if maxDeg < 10*m {
		t.Errorf("max degree %d, want >= %d (no hub formed)", maxDeg, 10*m)
	}
	stubs := 0
	for id, nd := range g.Nodes {
		if deg[id] <= m && nd.Tier != 1 {
			if nd.Kind != Stub || nd.Tier != 3 {
				t.Fatalf("leaf %d (deg %d) classified kind=%d tier=%d", id, deg[id], nd.Kind, nd.Tier)
			}
			stubs++
		}
	}
	if stubs == 0 {
		t.Error("no stub leaves in a 2000-node BA graph")
	}
}

// TestScaleFreeDegenerate: tiny and clamped parameters still build
// valid connected graphs.
func TestScaleFreeDegenerate(t *testing.T) {
	g := GenerateScaleFree(1, 0, sim.NewRNG(1)) // clamps to n=2, m=1
	if len(g.Nodes) != 2 || len(g.Links) != 1 {
		t.Fatalf("clamped graph: %d nodes %d links, want 2/1", len(g.Nodes), len(g.Links))
	}
	g = GenerateScaleFree(3, 2, sim.NewRNG(1)) // exactly the seed clique
	if len(g.Nodes) != 3 || len(g.Links) != 3 {
		t.Fatalf("clique graph: %d nodes %d links, want 3/3", len(g.Nodes), len(g.Links))
	}
}

// nodeWeights is the partition's load model, computed independently:
// 1 + degree per node.
func nodeWeights(g *Graph) map[NodeID]int {
	w := map[NodeID]int{}
	for id := range g.Nodes {
		w[id] = 1
	}
	for _, l := range g.Links {
		w[l.A]++
		w[l.B]++
	}
	return w
}

// TestPartitionBalanced: full coverage, a stable table, clamping, and
// the greedy guarantee that the heaviest and lightest shards differ by
// at most the largest single node weight.
func TestPartitionBalanced(t *testing.T) {
	for _, g := range []*Graph{
		GenerateScaleFree(103, 2, sim.NewRNG(9)),
		GenerateScaleFree(20000, 2, sim.NewRNG(42)),
	} {
		weights := nodeWeights(g)
		maxW := 0
		for _, w := range weights {
			if w > maxW {
				maxW = w
			}
		}
		for _, k := range []int{1, 2, 4, 8} {
			p := PartitionBalanced(g, k)
			if p.K != k {
				t.Fatalf("n=%d: K=%d, want %d", len(g.Nodes), p.K, k)
			}
			total := 0
			for _, c := range p.Counts {
				total += c
			}
			if total != len(g.Nodes) {
				t.Fatalf("n=%d k=%d: counts sum %d != %d nodes", len(g.Nodes), k, total, len(g.Nodes))
			}
			count := make([]int, k)
			load := make([]int, k)
			for id, w := range weights {
				s := p.ShardOf(id)
				if s < 0 || int(s) >= k {
					t.Fatalf("n=%d k=%d: node %d in shard %d", len(g.Nodes), k, id, s)
				}
				count[s]++
				load[s] += w
			}
			for s := range count {
				if count[s] != p.Counts[s] {
					t.Fatalf("n=%d k=%d: shard %d holds %d nodes, Counts says %d", len(g.Nodes), k, s, count[s], p.Counts[s])
				}
			}
			if lo, hi := slices.Min(load), slices.Max(load); hi-lo > maxW {
				t.Errorf("n=%d k=%d: shard weights %d..%d differ by more than the largest node weight %d", len(g.Nodes), k, lo, hi, maxW)
			}
			if again := PartitionBalanced(g, k); !reflect.DeepEqual(again, p) {
				t.Fatalf("n=%d k=%d: two partitions of the same graph differ", len(g.Nodes), k)
			}
		}
	}
	g := GenerateScaleFree(103, 2, sim.NewRNG(9))
	if p := PartitionBalanced(g, 0); p.K != 1 {
		t.Errorf("k=0 clamps to %d, want 1", p.K)
	}
	if p := PartitionBalanced(g, 1000); p.K != len(g.Nodes) {
		t.Errorf("k=1000 clamps to %d, want %d", p.K, len(g.Nodes))
	}
	if PartitionBalanced(g, 2).ShardOf(NodeID(9999)) != -1 {
		t.Error("unknown ID must map to shard -1")
	}
}

// TestMinCrossLatency: the lookahead window equals the smallest latency
// over the cut, and a single-shard partition has no cross links.
func TestMinCrossLatency(t *testing.T) {
	g := Linear(6, 3*sim.Millisecond)
	p := PartitionBalanced(g, 2)
	cross := 0
	var want sim.Time
	for _, l := range g.Links {
		if p.ShardOf(l.A) != p.ShardOf(l.B) {
			if cross == 0 || l.Latency < want {
				want = l.Latency
			}
			cross++
		}
	}
	if cross == 0 {
		t.Fatal("k=2 partition of a chain cut no link")
	}
	w, ok := p.MinCrossLatency(g)
	if !ok || w != want {
		t.Fatalf("window=%v ok=%v, want %v true", w, ok, want)
	}
	if c := p.CrossLinks(g); c != cross {
		t.Fatalf("cross links %d, want %d", c, cross)
	}
	p1 := PartitionBalanced(g, 1)
	if _, ok := p1.MinCrossLatency(g); ok {
		t.Fatal("k=1 partition reported a cross link")
	}
}
