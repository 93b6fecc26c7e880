package topology

import (
	"cmp"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/sim"
)

// mapGraph is the map-based adjacency the frozen Adjacency replaced, kept
// as its oracle: per-node link-index lists appended by addLink, and
// neighbour lists rebuilt and sorted whenever the link count has moved.
type mapGraph struct {
	nodes    map[NodeID]bool
	links    []Link
	adj      map[NodeID][]int
	nbr      map[NodeID][]NodeID
	nbrLinks int
}

func newMapGraph() *mapGraph {
	return &mapGraph{nodes: map[NodeID]bool{}, adj: map[NodeID][]int{}}
}

// mapGraphOf replays g's nodes and links into a fresh oracle.
func mapGraphOf(g *Graph) *mapGraph {
	o := newMapGraph()
	for id := range g.Nodes {
		o.nodes[id] = true
	}
	for _, l := range g.Links {
		o.addLink(l)
	}
	return o
}

func (o *mapGraph) addLink(l Link) {
	idx := len(o.links)
	o.links = append(o.links, l)
	o.adj[l.A] = append(o.adj[l.A], idx)
	o.adj[l.B] = append(o.adj[l.B], idx)
}

func (o *mapGraph) neighbors(id NodeID) []NodeID {
	if o.nbr == nil || o.nbrLinks != len(o.links) {
		o.nbr = make(map[NodeID][]NodeID, len(o.adj))
		for v, lis := range o.adj {
			out := make([]NodeID, 0, len(lis))
			for _, li := range lis {
				out = append(out, other(o.links[li], v))
			}
			sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
			o.nbr[v] = out
		}
		o.nbrLinks = len(o.links)
	}
	return o.nbr[id]
}

func (o *mapGraph) linkBetween(a, b NodeID) (Link, bool) {
	for _, li := range o.adj[a] {
		if l := o.links[li]; other(l, a) == b {
			return l, true
		}
	}
	return Link{}, false
}

func (o *mapGraph) relFrom(a, b NodeID) (NeighborClass, bool) {
	l, ok := o.linkBetween(a, b)
	switch {
	case !ok:
		return 0, false
	case l.Rel == PeerOf:
		return Peer, true
	case l.A == a && l.Rel == CustomerOf:
		return Provider, true
	default:
		return Customer, true
	}
}

func (o *mapGraph) nodeIDs() []NodeID {
	ids := make([]NodeID, 0, len(o.nodes))
	for id := range o.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// row returns id's (neighbour, link index) entries sorted by neighbour,
// then link index.
func (o *mapGraph) row(id NodeID) [][2]int {
	var out [][2]int
	for _, li := range o.adj[id] {
		out = append(out, [2]int{int(other(o.links[li], id)), li})
	}
	slices.SortFunc(out, func(x, y [2]int) int {
		return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1]))
	})
	return out
}

// checkFrozen compares every read of g with the oracle over all IDs up to
// two past the bound: the ID list and bound, each row's neighbours and
// link indices, LinkBetween and RelFrom on every pair, and that an
// append to a returned row leaves the next row as it was.
func checkFrozen(t *testing.T, g *Graph, o *mapGraph) {
	t.Helper()
	ids := o.nodeIDs()
	if got := g.NodeIDs(); !slices.Equal(got, ids) {
		t.Fatalf("NodeIDs = %v, oracle %v", got, ids)
	}
	bound := 1
	if len(ids) > 0 {
		bound = int(ids[len(ids)-1]) + 1
	}
	adj := g.Freeze()
	if adj.Bound() != bound {
		t.Fatalf("Bound = %d, want %d", adj.Bound(), bound)
	}
	top := NodeID(bound + 2)
	for a := NodeID(0); a < top; a++ {
		if got, want := g.Neighbors(a), o.neighbors(a); !slices.Equal(got, want) {
			t.Fatalf("Neighbors(%d) = %v, oracle %v", a, got, want)
		}
		nbr, link := adj.Row(a)
		want := o.row(a)
		if len(nbr) != len(want) || len(link) != len(want) {
			t.Fatalf("row %d has %d neighbours and %d links, oracle %d entries", a, len(nbr), len(link), len(want))
		}
		for i, e := range want {
			if int(nbr[i]) != e[0] || int(link[i]) != e[1] {
				t.Fatalf("row %d entry %d = (%d, link %d), oracle (%d, link %d)", a, i, nbr[i], link[i], e[0], e[1])
			}
		}
		for b := NodeID(0); b < top; b++ {
			gl, gok := g.LinkBetween(a, b)
			ol, ook := o.linkBetween(a, b)
			if gl != ol || gok != ook {
				t.Fatalf("LinkBetween(%d, %d) = %+v %v, oracle %+v %v", a, b, gl, gok, ol, ook)
			}
			gc, gok := g.RelFrom(a, b)
			oc, ook := o.relFrom(a, b)
			if gc != oc || gok != ook {
				t.Fatalf("RelFrom(%d, %d) = %v %v, oracle %v %v", a, b, gc, gok, oc, ook)
			}
		}
	}
	for a := NodeID(0); a+1 < top; a++ {
		next := slices.Clone(g.Neighbors(a + 1))
		row := g.Neighbors(a)
		_ = append(row, 0xffff)
		if got := g.Neighbors(a + 1); !slices.Equal(got, next) {
			t.Fatalf("appending to row %d changed row %d: %v, was %v", a, a+1, got, next)
		}
	}
}

// FuzzFrozenGraph replays fuzz bytes as graph operations, two bytes
// each, on a Graph and on the map-based oracle, comparing every read
// after each read operation and at the end. The first byte's low two
// bits pick the operation: 0 adds node second-byte mod 48 (a repeat is
// skipped), so IDs have gaps and may include 0; 1 and 2 link the nodes
// the second byte's nibbles pick among the first 16 added, peer or
// customer by the first byte's bit 2, so repeated pairs make
// multi-edges and later nodes stay isolated; 3 reads, so nodes and
// links added after it exercise the rebuild.
func FuzzFrozenGraph(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g := NewGraph()
		o := newMapGraph()
		var added []NodeID
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			switch op & 3 {
			case 0:
				id := NodeID(arg % 48)
				if o.nodes[id] {
					continue
				}
				g.AddNode(id, Kind(arg&1), 1)
				o.nodes[id] = true
				added = append(added, id)
			case 1, 2:
				if len(added) < 2 {
					continue
				}
				pick := added[:min(len(added), 16)]
				a, b := pick[int(arg&15)%len(pick)], pick[int(arg>>4)%len(pick)]
				if a == b {
					continue
				}
				// A latency per link tells multi-edges apart.
				l := Link{A: a, B: b, Rel: Relationship(op >> 2 & 1), Latency: sim.Time(len(g.Links)), Cost: 1}
				g.AddLink(l.A, l.B, l.Rel, l.Latency, l.Cost)
				o.addLink(l)
			case 3:
				checkFrozen(t, g, o)
			}
		}
		checkFrozen(t, g, o)
	})
}

// TestFrozenGraphMatchesOracle runs the oracle comparison over generated
// topologies: hierarchies, whose IDs the fuzz graphs' 48 do not reach,
// and a scale-free graph with hubs.
func TestFrozenGraphMatchesOracle(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		g := GenerateHierarchy(HierarchyConfig{Tier1: 3, Tier2: 8, Stubs: 40, MultihomeProb: 0.5, PeerProb: 0.3}, sim.NewRNG(seed))
		checkFrozen(t, g, mapGraphOf(g))
	}
	g := GenerateScaleFree(300, 2, sim.NewRNG(42))
	checkFrozen(t, g, mapGraphOf(g))
}

// TestFrozenGraphAllocs: once frozen, Neighbors, LinkBetween and RelFrom
// allocate nothing, and the freeze itself allocates as many objects for
// 10k nodes as for 1k, so nothing is allocated per node or per link.
//
// The process's first garbage collection allocates a few runtime objects
// of its own (later ones allocate at most one), so the test collects
// once before it counts: otherwise that first collection can land inside
// one of the measured freezes.
func TestFrozenGraphAllocs(t *testing.T) {
	runtime.GC()
	g := GenerateScaleFree(1000, 2, sim.NewRNG(42))
	reads := testing.AllocsPerRun(100, func() {
		for _, v := range g.Neighbors(1) {
			g.LinkBetween(1, v)
			g.RelFrom(v, 1)
		}
	})
	if reads != 0 {
		t.Errorf("frozen reads allocate %v objects per run, want 0", reads)
	}
	freeze := func(n int) float64 {
		g := GenerateScaleFree(n, 2, sim.NewRNG(42))
		return testing.AllocsPerRun(3, func() {
			g.adj = nil
			g.Freeze()
		})
	}
	if small, large := freeze(1000), freeze(10000); small != large {
		t.Errorf("freezing allocates %v objects at 1k nodes and %v at 10k, want equal", small, large)
	}
}

// TestFrozenGraphConcurrentReads: once frozen, a graph serves reads from
// several goroutines at once (the sharded simulator's shards share one),
// and they see what a single reader sees.
func TestFrozenGraphConcurrentReads(t *testing.T) {
	g := GenerateScaleFree(500, 2, sim.NewRNG(7))
	g.Freeze()
	// The oracle builds its neighbour lists lazily, so it answers
	// before the goroutines start.
	o := mapGraphOf(g)
	want := map[NodeID][]NodeID{}
	for id := range g.Nodes {
		want[id] = o.neighbors(id)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, a := range g.NodeIDs() {
				if !slices.Equal(g.Neighbors(a), want[a]) {
					t.Errorf("Neighbors(%d) differs from the oracle", a)
					return
				}
				for _, b := range g.Neighbors(a) {
					if _, ok := g.LinkBetween(a, b); !ok {
						t.Errorf("LinkBetween(%d, %d) found no link", a, b)
						return
					}
					g.RelFrom(b, a)
				}
			}
		}()
	}
	wg.Wait()
}

// other returns the endpoint of l that is not id.
func other(l Link, id NodeID) NodeID {
	if l.A == id {
		return l.B
	}
	return l.A
}
