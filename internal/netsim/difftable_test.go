package netsim

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// refModel is the map-based reference the dense link table and fault
// state are pinned against: the simplest possible bookkeeping, updated
// in lockstep with the Network under a random operation schedule.
type refModel struct {
	failed   map[[2]topology.NodeID]bool
	down     map[topology.NodeID]bool
	impaired map[[2]topology.NodeID]bool
}

func newRefModel() *refModel {
	return &refModel{
		failed:   map[[2]topology.NodeID]bool{},
		down:     map[topology.NodeID]bool{},
		impaired: map[[2]topology.NodeID]bool{},
	}
}

func refKey(a, b topology.NodeID) [2]topology.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]topology.NodeID{a, b}
}

// backlog is NodeBacklog by a scan of every link: the largest backlog
// on a live link out of id, in the direction leaving id, which is the
// backlog entry of the link's place in id's adjacency row.
func (m *refModel) backlog(n *Network, id topology.NodeID) sim.Time {
	_, row := n.lt.adj.Row(id)
	out := int(n.Node(id).out)
	var worst sim.Time
	for i, l := range n.Graph.Links {
		if (l.A != id && l.B != id) || m.failed[refKey(l.A, l.B)] {
			continue
		}
		worst = max(worst, n.lt.busy[out+slices.Index(row, int32(i))]-n.Sched.Now())
	}
	return worst
}

// checkAgainst compares every observable of the dense tables with the
// reference: per-link failure state (query and dense flags), link-index
// lookups in both directions, the backlog of each node n runs, the
// crashed-node flags of every node, and the impairment flags and table.
func (m *refModel) checkAgainst(t *testing.T, n *Network, step int) {
	t.Helper()
	g := n.Graph
	for i, l := range g.Links {
		want := m.failed[refKey(l.A, l.B)]
		if got := n.LinkFailed(l.A, l.B); got != want {
			t.Fatalf("step %d: LinkFailed(%d,%d) = %v, ref %v", step, l.A, l.B, got, want)
		}
		if got := n.lt.flags[i]&linkDown != 0; got != want {
			t.Fatalf("step %d: dense linkDown[%d] (%d–%d) = %v, ref %v", step, i, l.A, l.B, got, want)
		}
		li := n.linkIndex(l.A, l.B)
		if li != int32(i) {
			t.Fatalf("step %d: linkIndex(%d,%d) = %d, want %d", step, l.A, l.B, li, i)
		}
		if rev := n.linkIndex(l.B, l.A); rev != int32(i) {
			t.Fatalf("step %d: reverse linkIndex(%d,%d) = %d, want %d", step, l.B, l.A, rev, i)
		}
	}
	for _, id := range g.NodeIDs() {
		// A node another shard runs has no backlog here, only fault flags.
		if n.slot[id] >= 0 {
			if got, want := n.NodeBacklog(id), m.backlog(n, id); got != want {
				t.Fatalf("step %d: NodeBacklog(%d) = %v, scan of the links %v", step, id, got, want)
			}
		}
		if got, want := n.NodeFailed(id), m.down[id]; got != want {
			t.Fatalf("step %d: NodeFailed(%d) = %v, ref %v", step, id, got, want)
		}
		if got := n.nodeDown[id]; got != m.down[id] {
			t.Fatalf("step %d: dense nodeDown[%d] = %v, ref %v", step, id, got, m.down[id])
		}
	}
	if n.ImpairedLinks() != len(m.impaired) {
		t.Fatalf("step %d: ImpairedLinks = %d, ref %d", step, n.ImpairedLinks(), len(m.impaired))
	}
	for i, l := range g.Links {
		want := m.impaired[refKey(l.A, l.B)]
		if got := n.lt.flags[i]&linkImpaired != 0; got != want {
			t.Fatalf("step %d: dense linkImpaired[%d] (%d–%d) = %v, ref %v", step, i, l.A, l.B, got, want)
		}
		if got := n.impair[int32(i)] != nil; got != want {
			t.Fatalf("step %d: impair[%d] (%d–%d) present=%v, ref %v", step, i, l.A, l.B, got, want)
		}
	}
}

// TestLinkTableMatchesReference drives a seeded random schedule of fault
// operations — link fail/restore, node crash/recover, impair/clear —
// comparing the dense link/failure/impairment tables against the
// map reference after every operation. Mutations naming a link or node
// the topology does not have must panic and change nothing; queries on
// them report false. The schedule runs on one network and, as FaultAt
// replicates faults, on every shard of 2- and 4-shard groups, whose
// fault tables must each match the reference for every node and link.
func TestLinkTableMatchesReference(t *testing.T) {
	t.Run("unsharded", func(t *testing.T) {
		linkTableSchedule(t, func(g *topology.Graph) []*Network {
			return []*Network{New(sim.NewScheduler(), g)}
		})
	})
	for _, k := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			linkTableSchedule(t, func(g *topology.Graph) []*Network {
				s := NewSharded(g, k)
				nets := make([]*Network, len(s.Shards))
				for i, sh := range s.Shards {
					nets[i] = sh.Net
				}
				return nets
			})
		})
	}
}

// linkTableSchedule runs the reference schedule on the networks build
// returns for the schedule's topology, applying every operation to each.
func linkTableSchedule(t *testing.T, build func(*topology.Graph) []*Network) {
	rng := sim.NewRNG(20260806)
	g := topology.GenerateHierarchy(topology.HierarchyConfig{
		Tier1: 2, Tier2: 3, Stubs: 6,
		MultihomeProb: 0.5, PeerProb: 0.3,
		BaseLatency: 5 * sim.Millisecond,
	}, rng.Fork())
	nets := build(g)
	// Distinct backlogs on every directed link, from an RNG of their own so
	// the operation schedule stays as it was, give NodeBacklog a maximum to
	// find.
	busy := sim.NewRNG(7)
	for _, n := range nets {
		for i := range n.lt.busy {
			n.lt.busy[i] = sim.Time(1 + busy.Intn(1000))
		}
	}
	each := func(op func(n *Network)) {
		for _, n := range nets {
			op(n)
		}
	}
	ref := newRefModel()
	ids := g.NodeIDs()
	unknown := ids[len(ids)-1] + 1

	pickLink := func() topology.Link { return g.Links[rng.Intn(len(g.Links))] }
	pickNode := func() topology.NodeID { return ids[rng.Intn(len(ids))] }
	// pickNonLink returns two distinct existing nodes with no link
	// between them.
	pickNonLink := func() (topology.NodeID, topology.NodeID) {
		for {
			a, b := pickNode(), pickNode()
			if _, ok := g.LinkBetween(a, b); a != b && !ok {
				return a, b
			}
		}
	}

	check := func(step int) {
		for _, n := range nets {
			ref.checkAgainst(t, n, step)
		}
	}
	check(-1)
	for step := 0; step < 400; step++ {
		switch rng.Intn(8) {
		case 0:
			l := pickLink()
			each(func(n *Network) { n.FailLink(l.A, l.B) })
			ref.failed[refKey(l.A, l.B)] = true
		case 1:
			l := pickLink()
			each(func(n *Network) { n.RestoreLink(l.A, l.B) })
			delete(ref.failed, refKey(l.A, l.B))
		case 2:
			id := pickNode()
			each(func(n *Network) { n.FailNode(id) })
			ref.down[id] = true
		case 3:
			id := pickNode()
			each(func(n *Network) { n.RecoverNode(id) })
			delete(ref.down, id)
		case 4:
			l := pickLink()
			imp := rng.Fork()
			each(func(n *Network) { n.ImpairLink(l.A, l.B, LinkImpairment{Corrupt: 0.1}, imp) })
			ref.impaired[refKey(l.A, l.B)] = true
		case 5:
			l := pickLink()
			each(func(n *Network) { n.ClearImpairment(l.A, l.B) })
			delete(ref.impaired, refKey(l.A, l.B))
		case 6:
			a, b := pickNonLink()
			op := rng.Intn(4)
			each(func(n *Network) {
				switch op {
				case 0:
					mustPanic(t, "FailLink", func() { n.FailLink(a, b) })
				case 1:
					mustPanic(t, "RestoreLink", func() { n.RestoreLink(a, b) })
				case 2:
					mustPanic(t, "ImpairLink", func() { n.ImpairLink(a, b, LinkImpairment{Corrupt: 0.1}, nil) })
				default:
					mustPanic(t, "ClearImpairment", func() { n.ClearImpairment(a, b) })
				}
				if n.LinkFailed(a, b) || n.LinkFailed(b, a) {
					t.Fatalf("step %d: LinkFailed(%d,%d) = true for a pair with no link", step, a, b)
				}
			})
		case 7:
			// Node 0 is inside the dense tables but not in the topology.
			id := []topology.NodeID{0, unknown, unknown + 5}[rng.Intn(3)]
			fail := rng.Bool(0.5)
			each(func(n *Network) {
				if fail {
					mustPanic(t, "FailNode", func() { n.FailNode(id) })
				} else {
					mustPanic(t, "RecoverNode", func() { n.RecoverNode(id) })
				}
				if n.NodeFailed(id) {
					t.Fatalf("step %d: NodeFailed(%d) = true for an unknown node", step, id)
				}
			})
		}
		check(step)
	}
}

// mustPanic fails the test unless fn panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	if !panics(fn) {
		t.Fatalf("%s on a missing element did not panic", what)
	}
}

// panics reports whether fn panics.
func panics(fn func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	fn()
	return false
}
