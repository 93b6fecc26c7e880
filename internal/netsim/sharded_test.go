package netsim

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// A shard holds only the nodes its partition gives it. Node answers for
// those alone and panics on a node another shard runs, while the fault
// calls, whose state every shard replicates, work on every node of the
// topology on every shard. An ID the topology lacks panics everywhere.
func TestShardHoldsOnlyItsNodes(t *testing.T) {
	g := topology.GenerateScaleFree(600, 2, sim.NewRNG(42))
	ids := g.NodeIDs()
	absent := []topology.NodeID{0, ids[len(ids)-1] + 1}
	for _, k := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			s := NewSharded(g, k)
			for i, sh := range s.Shards {
				if got, want := len(sh.Net.nodeArr), s.Part.Counts[i]; got != want {
					t.Fatalf("shard %d holds %d nodes, its partition gives it %d", i, got, want)
				}
			}
			for _, id := range ids {
				owner := s.Part.ShardOf(id)
				for i, sh := range s.Shards {
					if int32(i) != owner {
						if !panics(func() { sh.Net.Node(id) }) {
							t.Fatalf("shard %d: Node(%d), run by shard %d, did not panic", i, id, owner)
						}
						continue
					}
					if nd := sh.Net.Node(id); nd.ID != id || nd.Net != sh.Net {
						t.Fatalf("shard %d: Node(%d) = node %d of another network", i, id, nd.ID)
					}
				}
			}

			// Fault calls on every node and link, from every shard, read back
			// the same on every shard.
			for _, down := range []bool{true, false} {
				for _, sh := range s.Shards {
					for _, id := range ids {
						if down {
							sh.Net.FailNode(id)
						} else {
							sh.Net.RecoverNode(id)
						}
					}
					for _, l := range g.Links {
						if down {
							sh.Net.FailLink(l.A, l.B)
							sh.Net.ImpairLink(l.A, l.B, LinkImpairment{Corrupt: 0.1}, nil)
						} else {
							sh.Net.RestoreLink(l.A, l.B)
							sh.Net.ClearImpairment(l.A, l.B)
						}
					}
				}
				for i, sh := range s.Shards {
					for _, id := range ids {
						if sh.Net.NodeFailed(id) != down {
							t.Fatalf("shard %d: NodeFailed(%d) = %v, want %v", i, id, !down, down)
						}
					}
					for _, l := range g.Links {
						if sh.Net.LinkFailed(l.B, l.A) != down {
							t.Fatalf("shard %d: LinkFailed(%d,%d) = %v, want %v", i, l.B, l.A, !down, down)
						}
					}
					want := 0
					if down {
						want = len(g.Links)
					}
					if sh.Net.ImpairedLinks() != want {
						t.Fatalf("shard %d: ImpairedLinks = %d, want %d", i, sh.Net.ImpairedLinks(), want)
					}
				}
			}

			for i, sh := range s.Shards {
				for _, id := range absent {
					for what, call := range map[string]func(){
						"Node":        func() { sh.Net.Node(id) },
						"FailNode":    func() { sh.Net.FailNode(id) },
						"RecoverNode": func() { sh.Net.RecoverNode(id) },
					} {
						if !panics(call) {
							t.Fatalf("shard %d: %s(%d) on an ID the topology lacks did not panic", i, what, id)
						}
					}
					if sh.Net.NodeFailed(id) {
						t.Fatalf("shard %d: NodeFailed(%d) = true for an ID the topology lacks", i, id)
					}
				}
			}
		})
	}
}

// NewSharded refuses a zero-latency link between two shards, which would
// leave the epochs no lookahead, and builds the same chain on one shard,
// where no link crosses.
func TestNewShardedRejectsZeroLatencyCrossLink(t *testing.T) {
	g := topology.Linear(4, 0)
	if panics(func() { NewSharded(g, 1) }) {
		t.Fatal("one shard of a zero-latency chain panicked, though no link crosses shards")
	}
	if !panics(func() { NewSharded(g, 2) }) {
		t.Fatal("two shards of a zero-latency chain did not panic")
	}
}

// The per-node state of a sharded group is held once, by the shards
// that run the nodes; only the NodeID- and link-indexed slot and fault
// tables are per shard. So building 8 shards may cost at most twice the
// bytes of building 1. Shards that sized their node arena, key counters
// and backlogs for the whole topology would cost about 7.6 times.
func TestShardedBuildBytes(t *testing.T) {
	g := topology.GenerateScaleFree(10000, 2, sim.NewRNG(42))
	g.Freeze()
	build := func(k int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s := NewSharded(g, k)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(s)
		return after.TotalAlloc - before.TotalAlloc
	}
	one, eight := build(1), build(8)
	t.Logf("NewSharded on %d nodes: %d bytes at 1 shard, %d at 8 (%.2fx)", len(g.Nodes), one, eight, float64(eight)/float64(one))
	if eight > 2*one {
		t.Fatalf("NewSharded at 8 shards allocates %d bytes, more than twice the %d of 1 shard", eight, one)
	}
}
