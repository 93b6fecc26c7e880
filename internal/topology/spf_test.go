package topology

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// spEdge is one directed edge of a fuzz graph.
type spEdge struct {
	to NodeID
	w  float64
}

// decodeSPGraph turns fuzz bytes into a directed graph of 1–16 nodes.
// Byte 0 sets the node count and byte 1 the source. Each later pair of
// bytes is one edge: the first byte's low nibble names its tail and high
// nibble its head, and the second byte's low two bits its weight, 0–3,
// so equal-cost ties are common. Node i is NodeID(7i mod 16), so ID
// order differs from the order nodes are decoded in.
func decodeSPGraph(data []byte) (ids []NodeID, src NodeID, adj map[NodeID][]spEdge) {
	n := 1
	if len(data) > 0 {
		n += int(data[0] % 16)
	}
	for i := 0; i < n; i++ {
		ids = append(ids, NodeID(7*i%16))
	}
	if len(data) > 1 {
		src = ids[int(data[1])%n]
	}
	adj = map[NodeID][]spEdge{}
	for i := 2; i+1 < len(data); i += 2 {
		from, to := ids[int(data[i]&0x0f)%n], ids[int(data[i]>>4)%n]
		adj[from] = append(adj[from], spEdge{to, float64(data[i+1] & 3)})
	}
	return ids, src, adj
}

// fullSearch runs sp from src over adj until the frontier empties,
// checking that Next settles each node once, in non-decreasing distance.
// It returns the first hops Tables reports and the distance Next
// settled each node at.
func fullSearch(t *testing.T, sp *ShortestPaths, src NodeID, adj map[NodeID][]spEdge) (map[NodeID]NodeID, map[NodeID]float64) {
	dist := map[NodeID]float64{}
	last := 0.0
	sp.Reset(src)
	for u, d, ok := sp.Next(); ok; u, d, ok = sp.Next() {
		if _, settled := dist[u]; settled || d < last {
			t.Fatalf("settled %d at distance %v after %v (settled before: %v)", u, d, last, settled)
		}
		dist[u], last = d, d
		for _, e := range adj[u] {
			sp.Relax(e.to, e.w)
		}
	}
	return sp.Tables(), dist
}

// pathSearch runs sp from src over adj, stopping once dst settles.
func pathSearch(sp *ShortestPaths, src, dst NodeID, adj map[NodeID][]spEdge) []NodeID {
	sp.Reset(src)
	for u, _, ok := sp.Next(); ok; u, _, ok = sp.Next() {
		if u == dst {
			break
		}
		for _, e := range adj[u] {
			sp.Relax(e.to, e.w)
		}
	}
	return sp.Path(dst)
}

// bellmanFord is the distance oracle: every edge relaxed |V|-1 times.
func bellmanFord(ids []NodeID, src NodeID, adj map[NodeID][]spEdge) map[NodeID]float64 {
	dist := map[NodeID]float64{src: 0}
	for range ids {
		for u, edges := range adj {
			du, ok := dist[u]
			if !ok {
				continue
			}
			for _, e := range edges {
				if d, seen := dist[e.to]; !seen || du+e.w < d {
					dist[e.to] = du + e.w
				}
			}
		}
	}
	return dist
}

// scanFirstHops is the first-hop oracle, an O(V²) search: a full scan
// settles the unsettled node with the smallest (distance, NodeID), and a
// relaxation must strictly improve.
func scanFirstHops(src NodeID, adj map[NodeID][]spEdge) map[NodeID]NodeID {
	dist := map[NodeID]float64{src: 0}
	prev := map[NodeID]NodeID{}
	done := map[NodeID]bool{}
	for {
		cur, best, found := NodeID(0), 0.0, false
		for n, d := range dist {
			if done[n] {
				continue
			}
			if !found || d < best || (d == best && n < cur) {
				cur, best, found = n, d, true
			}
		}
		if !found {
			break
		}
		done[cur] = true
		for _, e := range adj[cur] {
			if done[e.to] {
				continue
			}
			if d, seen := dist[e.to]; !seen || best+e.w < d {
				dist[e.to] = best + e.w
				prev[e.to] = cur
			}
		}
	}
	next := map[NodeID]NodeID{}
	for n := range dist {
		if n == src {
			continue
		}
		hop := n
		for prev[hop] != src {
			hop = prev[hop]
		}
		next[n] = hop
	}
	return next
}

// FuzzShortestPaths checks the kernel on small tie-heavy digraphs:
// distances equal Bellman-Ford's, first hops equal the O(V²) scan's,
// listing every node's edges in reverse changes nothing, and a search
// stopped at a destination returns the full search's path to it.
func FuzzShortestPaths(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ids, src, adj := decodeSPGraph(data)
		var sp ShortestPaths
		next, dist := fullSearch(t, &sp, src, adj)
		if want := bellmanFord(ids, src, adj); !reflect.DeepEqual(dist, want) {
			t.Fatalf("distances %v, Bellman-Ford %v", dist, want)
		}
		if want := scanFirstHops(src, adj); !reflect.DeepEqual(next, want) {
			t.Fatalf("first hops %v, O(V²) scan %v", next, want)
		}
		paths := map[NodeID][]NodeID{}
		for _, id := range ids {
			paths[id] = sp.Path(id)
		}

		rev := map[NodeID][]spEdge{}
		for u, edges := range adj {
			for i := len(edges) - 1; i >= 0; i-- {
				rev[u] = append(rev[u], edges[i])
			}
		}
		revNext, revDist := fullSearch(t, &sp, src, rev)
		if !reflect.DeepEqual(revNext, next) || !reflect.DeepEqual(revDist, dist) {
			t.Fatalf("reversed edge lists: first hops %v dist %v, want %v %v", revNext, revDist, next, dist)
		}

		for _, dst := range ids {
			p := pathSearch(&sp, src, dst, adj)
			if !reflect.DeepEqual(p, paths[dst]) {
				t.Fatalf("path search to %d = %v, full search %v", dst, p, paths[dst])
			}
			d, reached := dist[dst]
			if !reached {
				if p != nil {
					t.Fatalf("path %v to unreachable %d", p, dst)
				}
				continue
			}
			if p[0] != src || p[len(p)-1] != dst || (dst != src && p[1] != next[dst]) {
				t.Fatalf("path %v from %d to %d disagrees with first hop %d", p, src, dst, next[dst])
			}
			sum := 0.0
			for i := 1; i < len(p); i++ {
				w, ok := minWeight(adj, p[i-1], p[i])
				if !ok {
					t.Fatalf("path %v uses missing edge %d→%d", p, p[i-1], p[i])
				}
				sum += w
			}
			if sum != d {
				t.Fatalf("path %v weighs %v, distance %v", p, sum, d)
			}
		}
	})
}

func minWeight(adj map[NodeID][]spEdge, u, v NodeID) (float64, bool) {
	w, ok := 0.0, false
	for _, e := range adj[u] {
		if e.to == v && (!ok || e.w < w) {
			w, ok = e.w, true
		}
	}
	return w, ok
}

// After one warm-up, a full search allocates only the map Tables
// returns, and a path search only the slice Path returns.
func TestShortestPathsAllocs(t *testing.T) {
	g := GenerateHierarchy(DefaultHierarchy(), sim.NewRNG(3))
	ids := g.NodeIDs()
	src, dst := ids[0], ids[len(ids)-1]
	var sp ShortestPaths
	search := func(stop bool) {
		sp.Reset(src)
		for u, _, ok := sp.Next(); ok && !(stop && u == dst); u, _, ok = sp.Next() {
			for _, v := range g.Neighbors(u) {
				l, _ := g.LinkBetween(u, v)
				sp.Relax(v, l.Cost)
			}
		}
	}
	search(false) // warm up

	if a := testing.AllocsPerRun(20, func() { search(false) }); a != 0 {
		t.Errorf("full search allocates %.0f times, want 0", a)
	}
	var next map[NodeID]NodeID
	full := testing.AllocsPerRun(20, func() { search(false); next = sp.Tables() })
	n := len(next)
	maps := testing.AllocsPerRun(20, func() {
		next = make(map[NodeID]NodeID, n)
		for _, id := range ids {
			next[id] = id
		}
	})
	if full > maps {
		t.Errorf("full search with Tables allocates %.0f times, its map alone %.0f", full, maps)
	}
	var path []NodeID
	if a := testing.AllocsPerRun(20, func() { search(true); path = sp.Path(dst) }); a != 1 {
		t.Errorf("path search with Path allocates %.0f times, want 1", a)
	}
	if len(path) < 2 {
		t.Fatalf("no path from %d to %d", src, dst)
	}
}
