package topology

import "slices"

// Adjacency is a Graph's frozen adjacency in compressed sparse rows: one
// row per node ID below Bound, holding one entry per link at the node,
// each entry carrying its neighbour and its own index in Graph.Links.
// Entries are sorted by (neighbour ID, link index), so a neighbour joined
// by several links appears once per link, lowest link index first.
//
// It is the one copy of the structure every reader walks: the Graph's
// Neighbors, LinkBetween, RelFrom and NodeIDs, the partitioner, netsim's
// link lookups and backlog scans, and the scale workload's routing
// tables. Rows are indexed by NodeID, so memory is O(Bound + links):
// every generator assigns dense IDs from 1 (0 is reserved as "none"), and
// a graph with sparse IDs pays for its gaps.
//
// An Adjacency never changes once built, so any number of goroutines may
// read it at once.
type Adjacency struct {
	off  []int32  // node v's entries are [off[v], off[v+1])
	nbr  []NodeID // each entry's neighbour
	link []int32  // each entry's index in Graph.Links
	ids  []NodeID // every node ID, ascending
	// nodes and links are the graph's counts when this was built: the
	// staleness test Freeze applies.
	nodes, links int
}

// Freeze returns the graph's adjacency, building it first if this is the
// first read or AddNode or AddLink ran since the last build. Neighbors,
// LinkBetween, RelFrom and NodeIDs call it, so they are safe to call from
// several goroutines once the graph is frozen, but never concurrently
// with AddNode or AddLink; call Freeze before handing a graph to
// goroutines, as netsim.New does. The build is O(Bound + links) with a
// fixed number of allocations and no sort.
func (g *Graph) Freeze() *Adjacency {
	if a := g.adj; a != nil && a.nodes == len(g.Nodes) && a.links == len(g.Links) {
		return a
	}
	g.adj = newAdjacency(g)
	return g.adj
}

func newAdjacency(g *Graph) *Adjacency {
	var maxID NodeID
	for id := range g.Nodes {
		maxID = max(maxID, id)
	}
	bound := int(maxID) + 1
	a := &Adjacency{
		off:   make([]int32, bound+1),
		nbr:   make([]NodeID, 2*len(g.Links)),
		link:  make([]int32, 2*len(g.Links)),
		ids:   make([]NodeID, 0, len(g.Nodes)),
		nodes: len(g.Nodes),
		links: len(g.Links),
	}
	// next first marks the node IDs, so they come out ascending without a
	// sort, then serves as each row's fill cursor.
	next := make([]int32, bound)
	for id := range g.Nodes {
		next[id] = 1
	}
	for id, mark := range next {
		if mark != 0 {
			a.ids = append(a.ids, NodeID(id))
		}
	}
	for _, l := range g.Links {
		a.off[l.A+1]++
		a.off[l.B+1]++
	}
	for v := 1; v <= bound; v++ {
		a.off[v] += a.off[v-1]
	}
	// Two stable counting passes sort the rows. The first fills each row
	// in link order. The second reads those rows in node order and files
	// node v's entry for link li into its neighbour u's row as (v, li),
	// so every row fills by ascending neighbour, and a neighbour's links
	// by ascending index.
	byLinkNbr := make([]NodeID, len(a.nbr))
	byLinkIdx := make([]int32, len(a.link))
	copy(next, a.off)
	for i, l := range g.Links {
		e := next[l.A]
		byLinkNbr[e], byLinkIdx[e] = l.B, int32(i)
		next[l.A]++
		e = next[l.B]
		byLinkNbr[e], byLinkIdx[e] = l.A, int32(i)
		next[l.B]++
	}
	copy(next, a.off)
	for v := range bound {
		for e := a.off[v]; e < a.off[v+1]; e++ {
			u := byLinkNbr[e]
			a.nbr[next[u]], a.link[next[u]] = NodeID(v), byLinkIdx[e]
			next[u]++
		}
	}
	return a
}

// Bound is one more than the largest node ID, and 1 for a graph without
// nodes: the length of a table indexed by NodeID.
func (a *Adjacency) Bound() int { return len(a.off) - 1 }

// Row returns id's neighbours and, entry for entry, the indices in
// Graph.Links of the links to them; both are empty for an ID with no
// links or at or above Bound. The slices share the adjacency's arrays,
// so callers must not write to them; their capacity ends with the row,
// so an append copies rather than overwriting the next row.
func (a *Adjacency) Row(id NodeID) ([]NodeID, []int32) {
	if int(id) >= len(a.off)-1 {
		return nil, nil
	}
	lo, hi := a.off[id], a.off[id+1]
	return a.nbr[lo:hi:hi], a.link[lo:hi:hi]
}

// LinkIndex returns the position in from's row of to's first entry and
// that entry's index in Graph.Links, or -1, -1 when the nodes are not
// adjacent. Between nodes joined by several links the entry is the
// first of to's, so the link is the lowest index.
func (a *Adjacency) LinkIndex(from, to NodeID) (pos int, link int32) {
	nbr, links := a.Row(from)
	if i, ok := slices.BinarySearch(nbr, to); ok {
		return i, links[i]
	}
	return -1, -1
}
