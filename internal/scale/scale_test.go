package scale

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// TestShardCountDeterminism is the core guarantee of the sharded
// simulation core: the same config renders byte-identically at every
// shard count, under both the sequential lockstep driver and the
// parallel epoch driver, with and without chaos faults.
func TestShardCountDeterminism(t *testing.T) {
	for _, seed := range []uint64{42, 7} {
		for _, chaos := range []bool{false, true} {
			base := Config{Nodes: 400, M: 2, Packets: 4000, Seed: seed, Chaos: chaos}
			ref := Run(withShards(base, 1, false)).Render()
			if ref == "" {
				t.Fatal("empty render")
			}
			for _, k := range []int{2, 4, 8} {
				for _, par := range []bool{false, true} {
					got := Run(withShards(base, k, par)).Render()
					if got != ref {
						t.Errorf("seed=%d chaos=%v shards=%d parallel=%v diverged:\n-- shards=1:\n%s-- got:\n%s",
							seed, chaos, k, par, ref, got)
					}
				}
			}
		}
	}
}

func withShards(c Config, k int, par bool) Config {
	c.Shards = k
	c.Parallel = par
	return c
}

// TestDeliversTraffic sanity-checks the workload itself: with no chaos
// and scaled sinks, every packet should be delivered.
func TestDeliversTraffic(t *testing.T) {
	r := Run(Config{Nodes: 500, Packets: 5000, Seed: 3, Shards: 4})
	if r.Delivered != 5000 || r.Dropped != 0 {
		t.Fatalf("delivered=%d dropped=%d, want 5000/0\n%s", r.Delivered, r.Dropped, r.Render())
	}
}

// TestChaosActuallyFaults guards the chaos schedule against silently
// becoming a no-op: at this density some packets must die.
func TestChaosActuallyFaults(t *testing.T) {
	r := Run(Config{Nodes: 500, Packets: 5000, Seed: 3, Shards: 2, Chaos: true})
	if r.Dropped == 0 {
		t.Fatalf("chaos run dropped nothing:\n%s", r.Render())
	}
	if r.Delivered == 0 {
		t.Fatalf("chaos run delivered nothing:\n%s", r.Render())
	}
}

// TestObsMergeShardIndependent verifies the merged metric registry is
// also shard-count-independent (Registry.Merge is commutative and the
// per-event emissions happen exactly once, on the executing shard).
func TestObsMergeShardIndependent(t *testing.T) {
	snap := func(k int, par bool) string {
		r := Run(Config{Nodes: 300, Packets: 3000, Seed: 11, Shards: k, Parallel: par, Obs: true, Chaos: true})
		s := r.Metrics.Snapshot()
		out := ""
		for _, c := range s.Counters {
			out += fmt.Sprintf("%s=%d\n", c.Name, c.Value)
		}
		for _, h := range s.Histograms {
			out += fmt.Sprintf("%s count=%d sum=%g\n", h.Name, h.Count, h.Sum)
		}
		return out
	}
	ref := snap(1, false)
	for _, k := range []int{2, 4} {
		for _, par := range []bool{false, true} {
			if got := snap(k, par); got != ref {
				t.Errorf("metrics diverged at shards=%d parallel=%v:\n-- shards=1:\n%s-- got:\n%s", k, par, ref, got)
			}
		}
	}
}

// TestWindowPositive: generated scale-free topologies always yield a
// usable conservative lookahead for k > 1.
func TestWindowPositive(t *testing.T) {
	r := Run(Config{Nodes: 200, Packets: 200, Seed: 9, Shards: 4})
	if r.CrossLinks == 0 {
		t.Fatal("partition has no cross links at k=4")
	}
	if r.Window <= 0 {
		t.Fatalf("window = %v, want > 0", r.Window)
	}
	if r.Window < 500*sim.Microsecond {
		t.Fatalf("window = %v, implausibly small for 2ms-base latencies", r.Window)
	}
}

// TestShardLoadBalanced: the busiest shard's executed events stay near
// the mean. The parallel drain waits on its busiest shard every epoch,
// so a skewed partition caps the speedup however many cores there are;
// in a scale-free graph a split by NodeID range puts the hubs, and most
// of the events, on shard 0.
func TestShardLoadBalanced(t *testing.T) {
	for _, seed := range []uint64{42, 7} {
		for _, tc := range []struct {
			shards int
			limit  float64
		}{{2, 1.15}, {4, 1.5}} {
			sm := Prepare(Config{Nodes: 10000, Packets: 100000, Seed: seed, Chaos: true, Shards: tc.shards})
			sm.Run()
			var total, busiest uint64
			for _, sh := range sm.S.Shards {
				total += sh.Sched.Processed
				busiest = max(busiest, sh.Sched.Processed)
			}
			ratio := float64(busiest) * float64(tc.shards) / float64(total)
			if ratio > tc.limit {
				t.Errorf("seed=%d shards=%d: busiest shard ran %.3fx the mean events, want <= %.2fx", seed, tc.shards, ratio, tc.limit)
			}
		}
	}
}

// BenchmarkScaleForward is the scale sweep: end-to-end packets through
// the sharded core (topology build + routing tables + full drain) at
// three orders of magnitude of topology size. b.N scales the packet
// count so ns/op approximates steady-state per-packet cost at each
// size; tussle-bench -scale-json snapshots fixed-size runs of the same
// workload into BENCH_scale.json for the -compare regression gate.
func BenchmarkScaleForward(b *testing.B) {
	for _, nodes := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			r := Run(Config{Nodes: nodes, M: 2, Packets: b.N, Seed: 42, Shards: 1})
			if r.Delivered+r.Dropped != b.N {
				b.Fatalf("terminated %d of %d packets", r.Delivered+r.Dropped, b.N)
			}
			b.ReportMetric(float64(r.Processed)/float64(b.N), "events/pkt")
		})
	}
}
