package topology

// ShortestPaths is the one single-source shortest-path search (Dijkstra)
// behind every router in the repository: both link-state databases,
// disjoint source-route discovery and the overlay mesh. Each caller
// supplies only its edge set and weights, by driving the search:
//
//	sp.Reset(src)
//	for u, d, ok := sp.Next(); ok; u, d, ok = sp.Next() {
//		// stop here for a path search once u is the destination
//		for each edge u→v of weight w {
//			sp.Relax(v, w)
//		}
//	}
//
// The search owns the rest: the frontier, the tie rule, the settled and
// previous-hop bookkeeping, and first-hop and path extraction.
//
// Tie rule: the frontier node with the smallest (distance, NodeID)
// settles next, and a relaxation must strictly improve a distance. A
// node's previous hop is therefore the first settled neighbour that
// reaches it at its final distance, so the result does not depend on
// the order the caller lists edges in.
//
// A ShortestPaths keeps its memory from one search to the next, so a
// search after the first allocates nothing but what Tables and Path
// return. It must not be shared across goroutines.
type ShortestPaths struct {
	slot     map[NodeID]int32 // node -> index in nodes; the source is 0
	nodes    []spNode         // every node reached, in reach order
	frontier []spEntry        // binary min-heap on (dist, id); stale entries skipped
	cur      int32            // slot of the node Next last settled
}

type spNode struct {
	id    NodeID
	dist  float64
	prev  int32  // slot of the previous hop; -1 at the source
	first NodeID // first hop from the source
	done  bool   // settled: dist, prev and first are final
}

type spEntry struct {
	dist float64
	id   NodeID
	slot int32
}

func (a spEntry) less(b spEntry) bool {
	return a.dist < b.dist || (a.dist == b.dist && a.id < b.id)
}

// spInitCap is a new search's starting array capacity: room for the
// tens of nodes most callers route over, so a short-lived search (one
// per DisjointPaths call) does not regrow its arrays from nothing.
const spInitCap = 32

// Reset starts a new search from src, forgetting the previous one.
func (sp *ShortestPaths) Reset(src NodeID) {
	if sp.slot == nil {
		sp.slot = make(map[NodeID]int32)
		sp.nodes = make([]spNode, 0, spInitCap)
		sp.frontier = make([]spEntry, 0, spInitCap)
	} else {
		clear(sp.slot)
	}
	sp.slot[src] = 0
	sp.nodes = append(sp.nodes[:0], spNode{id: src, prev: -1, first: src})
	sp.frontier = append(sp.frontier[:0], spEntry{id: src})
	sp.cur = -1
}

// Next settles the frontier node with the smallest (distance, NodeID)
// and returns it with its distance. ok is false once the frontier is
// empty: every node reachable from the source has settled.
func (sp *ShortestPaths) Next() (id NodeID, dist float64, ok bool) {
	for len(sp.frontier) > 0 {
		e := sp.pop()
		n := &sp.nodes[e.slot]
		if n.done {
			// A stale entry: relaxations only lower a distance, so a
			// node's first entry to leave the heap is its current one.
			continue
		}
		n.done = true
		sp.cur = e.slot
		return n.id, n.dist, true
	}
	return 0, 0, false
}

// Relax offers the edge from the node Next last settled to v, of weight
// w. It lowers v's distance only if the edge strictly improves it, which
// it never does for a settled node. A weight that is negative or NaN is
// no edge: Dijkstra's settle order holds only for non-negative weights,
// and the link-state databases mask a failed link with a negative cost.
func (sp *ShortestPaths) Relax(v NodeID, w float64) {
	if !(w >= 0) {
		return
	}
	u := sp.nodes[sp.cur]
	d := u.dist + w
	first := u.first
	if sp.cur == 0 {
		first = v
	}
	i, seen := sp.slot[v]
	if !seen {
		i = int32(len(sp.nodes))
		sp.slot[v] = i
		sp.nodes = append(sp.nodes, spNode{id: v, dist: d, prev: sp.cur, first: first})
	} else if n := &sp.nodes[i]; d < n.dist {
		n.dist, n.prev, n.first = d, sp.cur, first
	} else {
		return
	}
	sp.push(spEntry{dist: d, id: v, slot: i})
}

// Tables returns a fresh map of every settled node's first hop but the
// source's. After a search run until Next reports an empty frontier, it
// covers every reachable node.
func (sp *ShortestPaths) Tables() map[NodeID]NodeID {
	next := make(map[NodeID]NodeID, len(sp.nodes))
	for i, n := range sp.nodes {
		if i > 0 && n.done {
			next[n.id] = n.first
		}
	}
	return next
}

// Path returns the shortest path from the source to dst, both included,
// as a fresh slice; nil when dst has not settled.
func (sp *ShortestPaths) Path(dst NodeID) []NodeID {
	i, seen := sp.slot[dst]
	if !seen || !sp.nodes[i].done {
		return nil
	}
	n := 1
	for j := i; sp.nodes[j].prev >= 0; j = sp.nodes[j].prev {
		n++
	}
	path := make([]NodeID, n)
	for j := i; j >= 0; j = sp.nodes[j].prev {
		n--
		path[n] = sp.nodes[j].id
	}
	return path
}

func (sp *ShortestPaths) push(e spEntry) {
	h := append(sp.frontier, e)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h[i].less(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	sp.frontier = h
}

func (sp *ShortestPaths) pop() spEntry {
	h := sp.frontier
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		m := 2*i + 1
		if m >= last {
			break
		}
		if r := m + 1; r < last && h[r].less(h[m]) {
			m = r
		}
		if !h[m].less(h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	sp.frontier = h
	return top
}
