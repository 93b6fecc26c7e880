package topology

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func triangle() *Graph {
	g := NewGraph()
	g.AddNode(1, Transit, 1)
	g.AddNode(2, Transit, 1)
	g.AddNode(3, Stub, 2)
	g.AddLink(1, 2, PeerOf, sim.Millisecond, 1)
	g.AddLink(3, 1, CustomerOf, sim.Millisecond, 1)
	return g
}

func TestRelationships(t *testing.T) {
	g := triangle()
	if c, ok := g.RelFrom(3, 1); !ok || c != Provider {
		t.Fatalf("RelFrom(3,1) = %v,%v; want provider", c, ok)
	}
	if c, ok := g.RelFrom(1, 3); !ok || c != Customer {
		t.Fatalf("RelFrom(1,3) = %v,%v; want customer", c, ok)
	}
	if c, ok := g.RelFrom(1, 2); !ok || c != Peer {
		t.Fatalf("RelFrom(1,2) = %v,%v; want peer", c, ok)
	}
	if _, ok := g.RelFrom(2, 3); ok {
		t.Fatal("RelFrom on non-adjacent nodes should be false")
	}
}

func TestProvidersCustomersPeers(t *testing.T) {
	g := triangle()
	if p := g.Providers(3); len(p) != 1 || p[0] != 1 {
		t.Fatalf("Providers(3) = %v", p)
	}
	if c := neighborsOfClass(g, 1, Customer); len(c) != 1 || c[0] != 3 {
		t.Fatalf("customers of 1 = %v", c)
	}
	if p := neighborsOfClass(g, 1, Peer); len(p) != 1 || p[0] != 2 {
		t.Fatalf("peers of 1 = %v", p)
	}
}

// neighborsOfClass returns id's neighbours that are of class c to it.
func neighborsOfClass(g *Graph, id NodeID, c NeighborClass) []NodeID {
	var out []NodeID
	for _, n := range g.Neighbors(id) {
		if got, ok := g.RelFrom(id, n); ok && got == c {
			out = append(out, n)
		}
	}
	return out
}

// connected reports whether the undirected graph is connected.
func connected(g *Graph) bool {
	ids := g.NodeIDs()
	if len(ids) == 0 {
		return true
	}
	seen := map[NodeID]bool{ids[0]: true}
	stack := []NodeID{ids[0]}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range g.Neighbors(n) {
			if !seen[m] {
				seen[m] = true
				stack = append(stack, m)
			}
		}
	}
	return len(seen) == len(ids)
}

func TestNeighborsDeterministic(t *testing.T) {
	g := triangle()
	n1 := g.Neighbors(1)
	n2 := g.Neighbors(1)
	if len(n1) != 2 || n1[0] != n2[0] || n1[1] != n2[1] {
		t.Fatalf("Neighbors unstable: %v vs %v", n1, n2)
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g := NewGraph()
	g.AddNode(1, Transit, 1)
	g.AddNode(1, Transit, 1)
}

func TestSelfLinkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g := NewGraph()
	g.AddNode(1, Transit, 1)
	g.AddLink(1, 1, PeerOf, 0, 1)
}

func TestLinkToUnknownNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g := NewGraph()
	g.AddNode(1, Transit, 1)
	g.AddLink(1, 2, PeerOf, 0, 1)
}

func TestConnected(t *testing.T) {
	g := triangle()
	if !connected(g) {
		t.Fatal("triangle should be connected")
	}
	g.AddNode(9, Stub, 3)
	if connected(g) {
		t.Fatal("isolated node should disconnect graph")
	}
}

func TestGenerateHierarchyConnected(t *testing.T) {
	f := func(seed uint64) bool {
		g := GenerateHierarchy(DefaultHierarchy(), sim.NewRNG(seed))
		return connected(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateHierarchyShape(t *testing.T) {
	cfg := DefaultHierarchy()
	g := GenerateHierarchy(cfg, sim.NewRNG(1))
	if len(g.Nodes) != cfg.Tier1+cfg.Tier2+cfg.Stubs {
		t.Fatalf("node count = %d", len(g.Nodes))
	}
	if len(g.Stubs()) != cfg.Stubs {
		t.Fatalf("stub count = %d", len(g.Stubs()))
	}
	// Every non-tier-1 node must have at least one provider
	// (Gao–Rexford reachability precondition).
	for _, id := range g.NodeIDs() {
		n := g.Nodes[id]
		if n.Tier > 1 && len(g.Providers(id)) == 0 {
			t.Fatalf("node %d (tier %d) has no provider", id, n.Tier)
		}
	}
	// Tier-1s form a peer clique.
	var t1 []NodeID
	for _, id := range g.NodeIDs() {
		if g.Nodes[id].Tier == 1 {
			t1 = append(t1, id)
		}
	}
	for i := range t1 {
		for j := i + 1; j < len(t1); j++ {
			if c, ok := g.RelFrom(t1[i], t1[j]); !ok || c != Peer {
				t.Fatalf("tier-1 %d and %d not peers", t1[i], t1[j])
			}
		}
	}
}

func TestGenerateHierarchyDeterministic(t *testing.T) {
	a := GenerateHierarchy(DefaultHierarchy(), sim.NewRNG(7))
	b := GenerateHierarchy(DefaultHierarchy(), sim.NewRNG(7))
	if len(a.Links) != len(b.Links) {
		t.Fatalf("link counts differ: %d vs %d", len(a.Links), len(b.Links))
	}
	for i := range a.Links {
		if a.Links[i].A != b.Links[i].A || a.Links[i].B != b.Links[i].B || a.Links[i].Rel != b.Links[i].Rel {
			t.Fatalf("link %d differs", i)
		}
	}
}

func TestLinear(t *testing.T) {
	g := Linear(4, sim.Millisecond)
	if !connected(g) || len(g.Links) != 3 {
		t.Fatalf("linear graph malformed: %d links", len(g.Links))
	}
	if c, _ := g.RelFrom(1, 2); c != Provider {
		t.Fatal("linear chain should point providers rightward")
	}
}

func TestLinkBetween(t *testing.T) {
	g := triangle()
	if _, ok := g.LinkBetween(1, 2); !ok {
		t.Fatal("missing link 1-2")
	}
	if _, ok := g.LinkBetween(2, 3); ok {
		t.Fatal("phantom link 2-3")
	}
	l, _ := g.LinkBetween(2, 1)
	if min(l.A, l.B) != 1 || max(l.A, l.B) != 2 {
		t.Fatalf("LinkBetween(2, 1) = %d-%d, want the 1-2 link", l.A, l.B)
	}
}
