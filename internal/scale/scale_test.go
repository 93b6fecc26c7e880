package scale

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestShardCountDeterminism is the core guarantee of the sharded
// simulation core: the same config renders byte-identically at every
// shard count, with each epoch's shards run one after another and in
// parallel, with and without chaos faults.
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

// TestFewerNodesThanSeedClique: a config asking for fewer nodes than the
// generator's M+1 seed clique runs on the clique it gets, with sinks
// derived from that size, instead of deriving zero sinks and panicking
// when the first source picks one.
func TestFewerNodesThanSeedClique(t *testing.T) {
	r := Run(Config{Nodes: 1, Packets: 10})
	if r.Nodes != 3 || r.Config.Nodes != 3 || r.Sinks != 1 {
		t.Fatalf("nodes=%d config nodes=%d sinks=%d, want 3/3/1", r.Nodes, r.Config.Nodes, r.Sinks)
	}
	if r.Delivered != 10 || r.Dropped != 0 {
		t.Fatalf("delivered=%d dropped=%d, want 10/0\n%s", r.Delivered, r.Dropped, r.Render())
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

// TestHandoffsIndependentOfDriver: a packet crossing shards is handed
// off once whether the epochs' shards run serially or in parallel, so
// both drains count the same handoffs, and one shard hands off nothing.
func TestHandoffsIndependentOfDriver(t *testing.T) {
	handoffs := func(shards int, par bool) int {
		sm := Prepare(Config{Nodes: 2000, Packets: 20000, Seed: 42, Chaos: true, Shards: shards, Parallel: par})
		sm.Run()
		return sm.S.Handoffs()
	}
	if n := handoffs(1, false); n != 0 {
		t.Fatalf("1 shard handed off %d packets, want 0", n)
	}
	for _, k := range []int{2, 4} {
		serial, par := handoffs(k, false), handoffs(k, true)
		if serial == 0 || serial != par {
			t.Errorf("%d shards: serial handed off %d packets, parallel %d; want the same, above 0", k, serial, par)
		}
	}
}

// TestSlicedDrainMatchesOneDrain: a drain cut into RunUntil slices the
// way bench/simscale.go cuts it (eight slices of the traffic horizon,
// then Run) ends where one Run ends, serial or parallel: the same
// Render() as one Run on one shard, and the same Processed() and
// Handoffs() as one Run on as many shards. A slice can end with
// cross-shard arrivals still buffered, which RunUntil must schedule
// before it returns, and after every slice the parallel drain has run
// and holds pending as many events as the serial one. Processed() is
// compared at the same shard count because every shard runs its own
// copy of each replicated fault event.
func TestSlicedDrainMatchesOneDrain(t *testing.T) {
	const slices = 8
	pending := func(sm *Sim) int {
		n := 0
		for _, sh := range sm.S.Shards {
			n += sh.Sched.Pending()
		}
		return n
	}
	for _, seed := range []uint64{42, 7} {
		base := Config{Nodes: 5000, Packets: 10000, Seed: seed, Chaos: true}
		want := Run(withShards(base, 1, false)).Render()
		for _, k := range []int{2, 4, 8} {
			one := Prepare(withShards(base, k, true))
			oneRes := one.Run()
			par, serial := Prepare(withShards(base, k, true)), Prepare(withShards(base, k, false))
			for i := 1; i <= slices; i++ {
				d := par.Cfg.Horizon * sim.Time(i) / slices
				par.S.RunUntil(d)
				serial.S.RunUntil(d)
				if p, q := pending(par), pending(serial); p != q || par.S.Processed() != serial.S.Processed() {
					t.Fatalf("seed=%d shards=%d: after slice %d the parallel drain ran %d events and holds %d pending, serial %d and %d",
						seed, k, i, par.S.Processed(), p, serial.S.Processed(), q)
				}
			}
			for _, sm := range []*Sim{par, serial} {
				r := sm.Run()
				name := fmt.Sprintf("seed=%d shards=%d parallel=%v", seed, k, sm.Cfg.Parallel)
				if got := r.Render(); got != want {
					t.Errorf("%s: sliced drain diverged from one drain on one shard:\n-- want:\n%s-- got:\n%s", name, want, got)
				}
				if r.Processed != oneRes.Processed {
					t.Errorf("%s: sliced drain processed %d events, one drain %d", name, r.Processed, oneRes.Processed)
				}
				if got, want := sm.S.Handoffs(), one.S.Handoffs(); got != want {
					t.Errorf("%s: sliced drain handed off %d packets, one drain %d", name, got, want)
				}
			}
		}
	}
}

// referenceNextHopTables builds the tables the plain way: one sequential
// BFS per sink over the frozen rows, branching on each neighbour's seen
// flag, with a fresh seen-set and table per sink. It is the oracle the
// parallel, branch-free walk must match.
func referenceNextHopTables(adj *topology.Adjacency, sinks []topology.NodeID) [][]topology.NodeID {
	out := make([][]topology.NodeID, len(sinks))
	queue := make([]topology.NodeID, 0, adj.Bound())
	for i, sk := range sinks {
		tbl := make([]topology.NodeID, adj.Bound())
		seen := make([]bool, adj.Bound())
		queue = queue[:0]
		seen[sk] = true
		queue = append(queue, sk)
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			nbrs, _ := adj.Row(v)
			for _, nb := range nbrs {
				if seen[nb] {
					continue
				}
				seen[nb] = true
				// nb's first hop toward the sink is v.
				tbl[nb] = v
				queue = append(queue, nb)
			}
		}
		out[i] = tbl
	}
	return out
}

// tableEntries returns the one accessor the tests read nextHopTables'
// output through: node v's entry for sink i, from the hub rows for a node
// with more than maxByteDegree links, which take the rows in ascending ID
// order, and from sink i's byte table for every other node.
func tableEntries(adj *topology.Adjacency, t sinkTables) func(i int, v topology.NodeID) int {
	hub := make([]int, adj.Bound())
	k := 0
	for v := range hub {
		if nbrs, _ := adj.Row(topology.NodeID(v)); len(nbrs) > maxByteDegree {
			hub[v] = k
			k++
		}
	}
	return func(i int, v topology.NodeID) int {
		if nbrs, _ := adj.Row(v); len(nbrs) > maxByteDegree {
			return int(t.hubs[hub[v]*len(t.next)+i])
		}
		return int(t.next[i][v])
	}
}

// hopsOf maps sink i's entries back to next-hop NodeIDs through each
// node's row: entry p names the node's (p-1)th neighbour, and 0 no hop.
// A position past the end of the row maps to an ID no graph here has,
// so it fails the comparison instead of panicking.
func hopsOf(adj *topology.Adjacency, entry func(int, topology.NodeID) int, i int) []topology.NodeID {
	hops := make([]topology.NodeID, adj.Bound())
	for v := range hops {
		p := entry(i, topology.NodeID(v))
		if p == 0 {
			continue
		}
		nbrs, _ := adj.Row(topology.NodeID(v))
		hops[v] = 1<<32 - 1
		if p <= len(nbrs) {
			hops[v] = nbrs[p-1]
		}
	}
	return hops
}

// checkTables builds the tables at GOMAXPROCS 1, 2 and 4, maps every
// entry back through its node's row and compares each table with the
// reference BFS's, entry for entry.
func checkTables(t *testing.T, name string, adj *topology.Adjacency, sinks []topology.NodeID) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	want := referenceNextHopTables(adj, sinks)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		tables := nextHopTables(adj, sinks)
		if len(tables.next) != len(want) {
			t.Fatalf("%s, GOMAXPROCS %d: %d tables, want %d", name, procs, len(tables.next), len(want))
		}
		entry := tableEntries(adj, tables)
		for i := range want {
			got := hopsOf(adj, entry, i)
			if slices.Equal(got, want[i]) {
				continue
			}
			v := 0
			for v < min(len(got), len(want[i])) && got[v] == want[i][v] {
				v++
			}
			t.Errorf("%s, GOMAXPROCS %d: sink %d's table (%d entries, want %d) first differs at node %d",
				name, procs, sinks[i], len(got), len(want[i]), v)
		}
	}
}

// TestNextHopTablesMatchReference: every table nextHopTables builds,
// mapped from row positions back to NodeIDs, is the reference BFS's,
// entry for entry, at GOMAXPROCS 1, 2 and 4. The graphs are Prepare's
// own, with its sinks, at 3, 1k and 10k nodes, and hand-built ones with
// ID gaps, parallel links, an isolated node, two components,
// equal-length paths, a single sink and fewer sinks than workers.
func TestNextHopTablesMatchReference(t *testing.T) {
	for _, nodes := range []int{3, 1000, 10000} {
		for seed := uint64(1); seed <= 20; seed++ {
			sm := Prepare(Config{Nodes: nodes, Packets: 1, Seed: seed})
			checkTables(t, fmt.Sprintf("scale-free nodes=%d seed=%d", nodes, seed), sm.G.Freeze(), sm.Sinks)
		}
	}

	// Component A is 1, 2, 3, 5, 8, with two links between 1 and 2, and
	// two equal-length paths between 1 and 3, through 2 and through 5;
	// component B is the triangle 9, 12, 20; 15 has no links; IDs 4, 6,
	// 7, 10, 11, 13, 14 and 16-19 are gaps.
	g := topology.NewGraph()
	for _, id := range []topology.NodeID{1, 2, 3, 5, 8, 9, 12, 15, 20} {
		g.AddNode(id, topology.Transit, 1)
	}
	for _, l := range [][2]topology.NodeID{{1, 2}, {2, 3}, {1, 2}, {3, 8}, {5, 1}, {3, 5}, {20, 9}, {9, 12}, {12, 20}} {
		g.AddLink(l[0], l[1], topology.PeerOf, sim.Millisecond, 1)
	}
	adj := g.Freeze()
	checkTables(t, "single sink", adj, []topology.NodeID{8})
	checkTables(t, "sink in each component", adj, []topology.NodeID{1, 12})
	checkTables(t, "isolated sink", adj, []topology.NodeID{15})
	checkTables(t, "every node a sink", adj, g.NodeIDs())
}

// star is a centre, node 1, linked once to each of leaves other nodes.
func star(leaves int) *topology.Adjacency {
	g := topology.NewGraph()
	for id := topology.NodeID(1); id <= topology.NodeID(leaves+1); id++ {
		g.AddNode(id, topology.Stub, 1)
	}
	for id := topology.NodeID(2); id <= topology.NodeID(leaves+1); id++ {
		g.AddLink(1, id, topology.CustomerOf, sim.Millisecond, 1)
	}
	return g.Freeze()
}

// TestNextHopTablesDegreeLimit: a node with at most 255 links keeps its
// entries in the byte tables, and one with more takes a 16-bit hub row.
// Stars of degree 255, 256 and 65,535 build, with sinks at the centre,
// the first leaf and the last leaf: every entry maps back to the
// reference, and the centre's entry toward the last leaf, the last
// position of its row, equals its degree: 255, the largest byte; 256,
// the first value past one; and 65,535, the largest a hub row holds. A
// star of degree 65,536 panics with the documented message instead of
// wrapping.
func TestNextHopTablesDegreeLimit(t *testing.T) {
	for _, degree := range []int{maxByteDegree, maxByteDegree + 1, maxDegree} {
		adj := star(degree)
		last := topology.NodeID(degree + 1)
		sinks := []topology.NodeID{1, 2, last}
		checkTables(t, fmt.Sprintf("star of degree %d", degree), adj, sinks)
		if got := tableEntries(adj, nextHopTables(adj, sinks))(2, 1); got != degree {
			t.Errorf("star of degree %d: the centre's entry toward leaf %d is %d, want %d", degree, last, got, degree)
		}
	}

	want := "scale: node 1 has 65536 links; sink routing tables name at most 65535"
	defer func() {
		if got := recover(); got != want {
			t.Fatalf("degree 65536: recovered %v, want panic %q", got, want)
		}
	}()
	nextHopTables(star(maxDegree+1), []topology.NodeID{1})
}

// TestPrepareTablesPinned pins every next hop Prepare installs at 100k
// nodes, the size of the benchmark and the committed digests. For each
// sink in order and each ID below Bound, it hashes the next hop the ID's
// route function returns toward the sink, as 4-byte little-endian, and 0
// for no hop or an ID without a node, so the pin does not depend on how
// the tables encode a hop: the expected hashes were taken from the 16-bit
// tables that preceded the byte and hub layout. The reference test stops
// at 10k nodes, and the scale digests count deliveries, which another
// equal-length next hop need not move.
func TestPrepareTablesPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("100k-node builds are too slow under the race detector")
	}
	for _, c := range []struct {
		seed uint64
		want string
	}{
		{42, "4bee56e85b5f87d29be24be61d74163e34e171928d8f2ac101f2f86cf922a93d"},
		{7, "24540e6dae87dd714d7f33d20b06cd238b4a65f6ab8c07c6e6c6191f51abb735"},
	} {
		sm := Prepare(Config{Nodes: 100000, Packets: 1, Seed: c.seed})
		routes := make([]netsim.RouteFunc, sm.G.Freeze().Bound())
		for _, v := range sm.G.NodeIDs() {
			routes[v] = sm.S.Owner(v).Node(v).Route
		}
		h := sha256.New()
		buf := make([]byte, 4*len(routes))
		for _, sk := range sm.Sinks {
			dst := sm.S.Owner(sk).AddrOf(sk)
			for v, route := range routes {
				var next topology.NodeID
				if route != nil {
					if nh, ok := route(dst, nil); ok {
						next = nh
					}
				}
				binary.LittleEndian.PutUint32(buf[4*v:], uint32(next))
			}
			h.Write(buf)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("seed %d: tables hash to %s, want %s", c.seed, got, c.want)
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
