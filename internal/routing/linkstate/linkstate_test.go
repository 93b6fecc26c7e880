package linkstate

import (
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
)

func diamond() *topology.Graph {
	// 1 -2- 2 -2- 4, 1 -1- 3 -1- 4 : via 3 is cheaper.
	g := topology.NewGraph()
	for i := 1; i <= 4; i++ {
		g.AddNode(topology.NodeID(i), topology.Transit, 1)
	}
	g.AddLink(1, 2, topology.PeerOf, sim.Millisecond, 2)
	g.AddLink(2, 4, topology.PeerOf, sim.Millisecond, 2)
	g.AddLink(1, 3, topology.PeerOf, sim.Millisecond, 1)
	g.AddLink(3, 4, topology.PeerOf, sim.Millisecond, 1)
	return g
}

// routeCost sums cost over the route tables give from a to b: the
// distance at which a's SPF settled b.
func routeCost(t *testing.T, tables map[topology.NodeID]*Table, cost func(a, b topology.NodeID) (float64, bool), a, b topology.NodeID) float64 {
	t.Helper()
	sum := 0.0
	for hops := 0; a != b; hops++ {
		nh, ok := tables[a].Next[b]
		c, edge := cost(a, nh)
		if !ok || !edge || hops > len(tables) {
			t.Fatalf("no route from %d to %d", a, b)
		}
		sum += c
		a = nh
	}
	return sum
}

func TestSPFPicksCheapestPath(t *testing.T) {
	db := NewDatabase(diamond())
	tables := Compute(db)
	if nh := tables[1].Next[4]; nh != 3 {
		t.Fatalf("next hop to 4 = %d, want 3", nh)
	}
	if d := routeCost(t, tables, db.Cost, 1, 4); d != 2 {
		t.Fatalf("dist to 4 = %v, want 2", d)
	}
}

func TestSPFCostOverrideShiftsTraffic(t *testing.T) {
	db := NewDatabase(diamond())
	// Node 3 raises its advertised cost (visible traffic engineering).
	db.SetCost(1, 3, 10)
	next := db.SPF(1)
	if next[4] != 2 {
		t.Fatalf("after override, next hop to 4 = %d, want 2", next[4])
	}
}

func TestComputeAllNodesReachable(t *testing.T) {
	f := func(seed uint64) bool {
		g := topology.GenerateHierarchy(topology.DefaultHierarchy(), sim.NewRNG(seed))
		tables := Compute(NewDatabase(g))
		ids := g.NodeIDs()
		for _, src := range ids {
			for _, dst := range ids {
				if src == dst {
					continue
				}
				if _, ok := tables[src].Next[dst]; !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestNextHopIsNeighbor(t *testing.T) {
	g := topology.GenerateHierarchy(topology.DefaultHierarchy(), sim.NewRNG(3))
	tables := Compute(NewDatabase(g))
	for _, src := range g.NodeIDs() {
		for dst, nh := range tables[src].Next {
			if _, adj := g.LinkBetween(src, nh); !adj {
				t.Fatalf("next hop %d from %d toward %d is not adjacent", nh, src, dst)
			}
		}
	}
}

func TestRoutesConvergeToDestination(t *testing.T) {
	// Following next hops from any source must reach the destination
	// without loops.
	g := topology.GenerateHierarchy(topology.DefaultHierarchy(), sim.NewRNG(5))
	tables := Compute(NewDatabase(g))
	ids := g.NodeIDs()
	for _, src := range ids {
		for _, dst := range ids {
			if src == dst {
				continue
			}
			at := src
			for steps := 0; at != dst; steps++ {
				if steps > len(ids) {
					t.Fatalf("loop routing %d->%d", src, dst)
				}
				nh, ok := tables[at].Next[dst]
				if !ok {
					t.Fatalf("no route at %d toward %d", at, dst)
				}
				at = nh
			}
		}
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	g := topology.GenerateHierarchy(topology.DefaultHierarchy(), sim.NewRNG(9))
	db := NewDatabase(g)
	tables := Compute(db)
	ids := g.NodeIDs()
	for _, a := range ids {
		for _, b := range ids {
			if a == b {
				continue
			}
			for _, c := range ids {
				if c == a || c == b {
					continue
				}
				dab := routeCost(t, tables, db.Cost, a, b)
				dac := routeCost(t, tables, db.Cost, a, c)
				dcb := routeCost(t, tables, db.Cost, c, b)
				if dab > dac+dcb+1e-9 {
					t.Fatalf("triangle violated: d(%d,%d)=%v > %v+%v", a, b, dab, dac, dcb)
				}
			}
		}
	}
}

func TestRouteFunc(t *testing.T) {
	db := NewDatabase(diamond())
	tables := Compute(db)
	rf := tables[1].RouteFunc()
	nh, ok := rf(packet.MakeAddr(4, 7), nil)
	if !ok || nh != 3 {
		t.Fatalf("RouteFunc = %d,%v", nh, ok)
	}
	self, ok := rf(packet.MakeAddr(1, 1), nil)
	if !ok || self != 1 {
		t.Fatalf("self route = %d,%v", self, ok)
	}
	if _, ok := rf(packet.MakeAddr(99, 0), nil); ok {
		t.Fatal("route to unknown destination should fail")
	}
}

func TestVisibleChoices(t *testing.T) {
	db := NewDatabase(diamond())
	// 4 links, both directions visible.
	if v := db.VisibleChoices(); v != 8 {
		t.Fatalf("VisibleChoices = %d, want 8", v)
	}
}
