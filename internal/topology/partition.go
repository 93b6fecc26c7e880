package topology

import (
	"slices"

	"repro/internal/sim"
)

// This file partitions a topology's nodes across K simulation shards.
// A shard's work is the events its nodes execute, and a node executes
// roughly one event per packet it originates, forwards or delivers, so
// transit hubs are far busier than leaves. The partition weighs each
// node by 1 + its degree and balances the weights greedily, heaviest
// node first. It reads nothing but the Graph and K — no hashing, no map
// iteration order — so it is reproducible across runs and machines. The
// sharded simulation core sizes its conservative-lookahead window from
// MinCrossLatency over the cut.

// Partition assigns every node to one of k shards.
type Partition struct {
	// K is the shard count (>= 1).
	K int
	// shardOf maps NodeID -> shard index; dense, -1 for unknown IDs.
	shardOf []int32
	// Counts is the number of nodes per shard.
	Counts []int
}

// PartitionBalanced splits the graph's nodes into k shards of near-equal
// weight, where a node weighs 1 + its degree. Nodes are visited by
// weight descending, then NodeID ascending, and each goes to the
// currently lightest shard (ties to the lowest index), so the heaviest
// and lightest shards differ by at most the largest node weight. k is
// clamped to [1, number of nodes].
//
// Degree stands in for load: in a scale-free graph built by
// preferential attachment the hubs have the lowest IDs and carry most
// paths, so a split by ID range leaves one shard with most of the work.
func PartitionBalanced(g *Graph, k int) *Partition {
	if k < 1 {
		k = 1
	}
	if k > len(g.Nodes) && len(g.Nodes) > 0 {
		k = len(g.Nodes)
	}
	adj := g.Freeze()
	p := &Partition{K: k, shardOf: make([]int32, adj.Bound()), Counts: make([]int, k)}
	// shardOf holds each node's weight until the node is assigned, so the
	// weights cost no allocation of their own (BENCH_scale gates
	// allocs/op at zero tolerance); 0 marks an ID that is not a node.
	weight := p.shardOf
	for _, id := range adj.ids {
		weight[id] = 1 + adj.off[id+1] - adj.off[id]
	}
	maxW := slices.Max(weight)

	// Counting sort into order: bucket maxW-w holds weight w, and IDs
	// enter their bucket in ascending order.
	next := make([]int, maxW+1)
	for _, w := range weight {
		if w > 0 {
			next[maxW-w]++
		}
	}
	sum := 0
	for b, c := range next {
		next[b] = sum
		sum += c
	}
	order := make([]NodeID, sum)
	for id, w := range weight {
		if w > 0 {
			order[next[maxW-w]] = NodeID(id)
			next[maxW-w]++
		} else {
			p.shardOf[id] = -1
		}
	}

	// A linear scan for the lightest shard costs O(n·k), no more than
	// the k full-topology shard networks a sharded simulation builds.
	load := make([]int, k)
	for _, id := range order {
		s := 0
		for i := 1; i < k; i++ {
			if load[i] < load[s] {
				s = i
			}
		}
		load[s] += int(weight[id]) // read before the assignment overwrites it
		p.shardOf[id] = int32(s)
		p.Counts[s]++
	}
	return p
}

// ShardOf returns the shard owning id, or -1 for unknown IDs.
func (p *Partition) ShardOf(id NodeID) int32 {
	if int(id) >= len(p.shardOf) {
		return -1
	}
	return p.shardOf[id]
}

// Table exposes the dense NodeID -> shard mapping for hot-path use. The
// returned slice is shared; callers must not modify it.
func (p *Partition) Table() []int32 { return p.shardOf }

// CrossLinks returns how many links have endpoints in different shards.
func (p *Partition) CrossLinks(g *Graph) int {
	cross := 0
	for _, l := range g.Links {
		if p.ShardOf(l.A) != p.ShardOf(l.B) {
			cross++
		}
	}
	return cross
}

// MinCrossLatency returns the smallest propagation latency over links
// whose endpoints live in different shards, and whether any such link
// exists. This is the conservative lookahead of the sharded event loop:
// a packet crossing shards cannot arrive sooner than the smallest
// cross-shard link latency after it was sent, so shards may safely run
// one such window ahead of each other between barriers.
func (p *Partition) MinCrossLatency(g *Graph) (sim.Time, bool) {
	var min sim.Time
	found := false
	for _, l := range g.Links {
		if p.ShardOf(l.A) == p.ShardOf(l.B) {
			continue
		}
		if !found || l.Latency < min {
			min = l.Latency
			found = true
		}
	}
	return min, found
}
