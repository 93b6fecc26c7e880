package srcroute

import (
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
)

func diamond() *topology.Graph {
	g := topology.NewGraph()
	for i := 1; i <= 4; i++ {
		g.AddNode(topology.NodeID(i), topology.Transit, 1)
	}
	g.AddLink(1, 2, topology.PeerOf, 2*sim.Millisecond, 1)
	g.AddLink(2, 4, topology.PeerOf, 2*sim.Millisecond, 1)
	g.AddLink(1, 3, topology.PeerOf, sim.Millisecond, 1)
	g.AddLink(3, 4, topology.PeerOf, sim.Millisecond, 1)
	return g
}

func TestDiscoverFindsBothPaths(t *testing.T) {
	cands := Discover(diamond(), 1, 4, 0, 8)
	if len(cands) != 2 {
		t.Fatalf("found %d candidates, want 2", len(cands))
	}
	// Cheapest (via 3) first.
	if cands[0].Path[1] != 3 || cands[0].Latency != 2*sim.Millisecond {
		t.Fatalf("best candidate = %+v", cands[0])
	}
	if cands[1].Path[1] != 2 {
		t.Fatalf("second candidate = %+v", cands[1])
	}
}

func TestDiscoverRespectsK(t *testing.T) {
	cands := Discover(diamond(), 1, 4, 1, 8)
	if len(cands) != 1 {
		t.Fatalf("k=1 returned %d", len(cands))
	}
}

func TestDiscoverRespectsMaxLen(t *testing.T) {
	g := topology.Linear(6, sim.Millisecond)
	if cands := Discover(g, 1, 6, 0, 3); len(cands) != 0 {
		t.Fatalf("maxLen=3 should preclude the 6-node path, got %v", cands)
	}
	if cands := Discover(g, 1, 6, 0, 6); len(cands) != 1 {
		t.Fatalf("maxLen=6 should find the path, got %d", len(cands))
	}
}

func TestDiscoverPathsAreSimpleAndValid(t *testing.T) {
	f := func(seed uint64) bool {
		g := topology.GenerateHierarchy(topology.DefaultHierarchy(), sim.NewRNG(seed))
		stubs := g.Stubs()
		src, dst := stubs[0], stubs[len(stubs)-1]
		for _, c := range Discover(g, src, dst, 5, 7) {
			if c.Path[0] != src || c.Path[len(c.Path)-1] != dst {
				return false
			}
			seen := map[topology.NodeID]bool{}
			for i, n := range c.Path {
				if seen[n] {
					return false
				}
				seen[n] = true
				if i > 0 {
					if _, adj := g.LinkBetween(c.Path[i-1], n); !adj {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestOptionBuildsInteriorHops(t *testing.T) {
	c := Candidate{Path: []topology.NodeID{1, 3, 4}}
	opt := c.Option()
	if opt == nil || len(opt.Hops) != 1 || opt.Hops[0] != packet.MakeAddr(3, 0) {
		t.Fatalf("option = %+v", opt)
	}
	direct := Candidate{Path: []topology.NodeID{1, 4}}
	if direct.Option() != nil {
		t.Fatal("direct path should need no source route")
	}
}

func TestVerify(t *testing.T) {
	c := Candidate{Path: []topology.NodeID{1, 3, 4}}
	if !c.Verify([]topology.NodeID{1, 3, 4}) {
		t.Fatal("exact path should verify")
	}
	if !c.Verify([]topology.NodeID{1, 2, 3, 2, 4}) {
		t.Fatal("loose route with extra hops should verify")
	}
	if c.Verify([]topology.NodeID{1, 2, 4}) {
		t.Fatal("path skipping waypoint 3 must not verify")
	}
	if c.Verify([]topology.NodeID{1, 4, 3}) {
		t.Fatal("out-of-order waypoints must not verify")
	}
}

func TestWithPaymentAmounts(t *testing.T) {
	key := []byte("payer key")
	tip := &packet.TIP{Src: packet.MakeAddr(1, 1), Dst: packet.MakeAddr(4, 1)}
	c := Candidate{Path: []topology.NodeID{1, 2, 3, 4}} // 2 interior hops
	amount := WithPayment(tip, c, key, 42)
	if amount != 2*PerHopPriceMilli {
		t.Fatalf("amount = %d", amount)
	}
	if tip.Payment == nil || tip.Payment.AmountMilli != amount {
		t.Fatalf("payment = %+v", tip.Payment)
	}
	p := tip.Payment
	if p.MAC != VoucherMAC(key, p.Payer, p.Payee, p.AmountMilli, p.Nonce) {
		t.Fatal("voucher not minted with the payer's key")
	}
	if p.MAC == VoucherMAC([]byte("other key"), p.Payer, p.Payee, p.AmountMilli, p.Nonce) {
		t.Fatal("another key mints the same voucher")
	}
}

func TestVoucherTamperingDetected(t *testing.T) {
	f := func(amount, nonce uint32) bool {
		key := []byte("k")
		p := &packet.PaymentOption{
			Payer: 1, Payee: 2, AmountMilli: amount, Nonce: nonce,
		}
		p.MAC = VoucherMAC(key, p.Payer, p.Payee, p.AmountMilli, p.Nonce)
		p.AmountMilli++ // inflate the payment
		return p.MAC != VoucherMAC(key, p.Payer, p.Payee, p.AmountMilli, p.Nonce)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// discoverRef is the visited-set search Discover replaced, kept as an
// oracle: the same DFS with a map of the nodes on the current path.
func discoverRef(g *topology.Graph, src, dst topology.NodeID, k, maxLen int) []Candidate {
	if maxLen <= 0 {
		maxLen = 8
	}
	var out []Candidate
	visited := map[topology.NodeID]bool{src: true}
	path := []topology.NodeID{src}
	var lat sim.Time
	var dfs func(cur topology.NodeID)
	dfs = func(cur topology.NodeID) {
		if cur == dst {
			cp := make([]topology.NodeID, len(path))
			copy(cp, path)
			out = append(out, Candidate{Path: cp, Latency: lat})
			return
		}
		if len(path) >= maxLen {
			return
		}
		for _, nb := range g.Neighbors(cur) {
			if visited[nb] {
				continue
			}
			l, _ := g.LinkBetween(cur, nb)
			visited[nb] = true
			path = append(path, nb)
			lat += l.Latency
			dfs(nb)
			lat -= l.Latency
			path = path[:len(path)-1]
			visited[nb] = false
		}
	}
	dfs(src)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Latency != out[j].Latency {
			return out[i].Latency < out[j].Latency
		}
		return len(out[i].Path) < len(out[j].Path)
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// checkDiscover requires Discover to return exactly the visited-set
// oracle's candidates, latencies and order, and every path to be simple,
// run from src to dst over real links and fit in maxLen.
func checkDiscover(t *testing.T, g *topology.Graph, src, dst topology.NodeID, k, maxLen int) {
	t.Helper()
	got := Discover(g, src, dst, k, maxLen)
	if want := discoverRef(g, src, dst, k, maxLen); !reflect.DeepEqual(got, want) {
		t.Fatalf("Discover(%d, %d, k=%d, maxLen=%d) = %v, oracle %v", src, dst, k, maxLen, got, want)
	}
	if maxLen <= 0 {
		maxLen = 8
	}
	if k > 0 && len(got) > k {
		t.Fatalf("%d candidates for k=%d", len(got), k)
	}
	for ci, c := range got {
		if len(c.Path) == 0 || len(c.Path) > maxLen {
			t.Fatalf("candidate %d has %d nodes (maxLen %d)", ci, len(c.Path), maxLen)
		}
		if c.Path[0] != src || c.Path[len(c.Path)-1] != dst {
			t.Fatalf("candidate %d endpoints wrong: %v", ci, c.Path)
		}
		for i, n := range c.Path {
			if slices.Contains(c.Path[:i], n) {
				t.Fatalf("candidate %d revisits %d: %v", ci, n, c.Path)
			}
			if i == 0 {
				continue
			}
			if _, adj := g.LinkBetween(c.Path[i-1], n); !adj {
				t.Fatalf("candidate %d uses non-link %d-%d", ci, c.Path[i-1], n)
			}
		}
	}
}

// TestDiscoverParallelLinks: where nodes are joined by several links of
// different latencies, Discover prices a hop by the link LinkBetween
// returns, the one added first, as the oracle does, whichever endpoint
// the links were added from and whether or not the first is the fastest.
// Every pair of nodes is searched at several bounds.
func TestDiscoverParallelLinks(t *testing.T) {
	g := topology.NewGraph()
	for i := 1; i <= 5; i++ {
		g.AddNode(topology.NodeID(i), topology.Transit, 1)
	}
	for _, l := range []struct {
		a, b topology.NodeID
		ms   sim.Time
	}{
		{1, 2, 5}, {1, 3, 2}, {2, 1, 1}, {2, 4, 1}, {3, 4, 4},
		{4, 3, 2}, {4, 3, 7}, {1, 2, 3}, {4, 5, 1}, {3, 5, 6}, {5, 4, 9},
	} {
		g.AddLink(l.a, l.b, topology.PeerOf, l.ms*sim.Millisecond, 1)
	}
	for _, src := range g.NodeIDs() {
		for _, dst := range g.NodeIDs() {
			for _, k := range []int{0, 1, 3} {
				for _, maxLen := range []int{0, 2, 3, 5} {
					checkDiscover(t, g, src, dst, k, maxLen)
				}
			}
		}
	}
}

// FuzzDiscover drives Discover over generated hierarchies with arbitrary
// endpoints and bounds, through checkDiscover. maxLen is capped at 10 so
// that one input enumerates in milliseconds.
func FuzzDiscover(f *testing.F) {
	f.Add(uint64(42), uint8(0), uint8(13), uint8(5), uint8(7))
	f.Add(uint64(7), uint8(2), uint8(5), uint8(1), uint8(4))
	f.Add(uint64(1), uint8(9), uint8(9), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, srcIdx, dstIdx, k, maxLen uint8) {
		g := topology.GenerateHierarchy(topology.DefaultHierarchy(), sim.NewRNG(seed))
		ids := g.NodeIDs()
		src := ids[int(srcIdx)%len(ids)]
		dst := ids[int(dstIdx)%len(ids)]
		checkDiscover(t, g, src, dst, int(k%12), int(maxLen%11))
	})
}
