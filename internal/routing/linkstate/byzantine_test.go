package linkstate

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// byzDiamond: 1-2-4 (costs 5+5) and 1-3-4 (costs 3+3). Honest best path
// is via 3. Node 2 is the prospective liar.
func byzDiamond() *topology.Graph {
	g := topology.NewGraph()
	for i := 1; i <= 4; i++ {
		g.AddNode(topology.NodeID(i), topology.Transit, 1)
	}
	g.AddLink(1, 2, topology.PeerOf, sim.Millisecond, 5)
	g.AddLink(2, 4, topology.PeerOf, sim.Millisecond, 5)
	g.AddLink(1, 3, topology.PeerOf, sim.Millisecond, 3)
	g.AddLink(3, 4, topology.PeerOf, sim.Millisecond, 3)
	return g
}

func TestHonestAdsMatchPlainSPF(t *testing.T) {
	g := byzDiamond()
	rng := sim.NewRNG(1)
	keys := GenerateKeys(g, rng)
	db := NewAdDatabase(g, SignedTwoSided, keys)
	for _, id := range g.NodeIDs() {
		ad := HonestAdvertisement(g, id)
		ad.Sign(keys[id])
		db.Flood(ad)
	}
	tables := Compute(db)
	if nh := tables[1].Next[4]; nh != 3 {
		t.Fatalf("honest next hop to 4 = %d, want 3", nh)
	}
	if d := routeCost(t, tables, db.EffectiveCost, 1, 4); d != 6 {
		t.Fatalf("honest dist to 4 = %v", d)
	}
	if db.Rejected != 0 {
		t.Fatalf("honest ads rejected: %d", db.Rejected)
	}
}

func TestLiarAttractsTrafficWhenTrusted(t *testing.T) {
	g := byzDiamond()
	db := NewAdDatabase(g, TrustAll, nil)
	for _, id := range g.NodeIDs() {
		if id == 2 {
			db.Flood(LiarAdvertisement(g, 2, 0.01, nil))
		} else {
			db.Flood(HonestAdvertisement(g, id))
		}
	}
	next := db.SPF(1)
	// 1's cost to reach 2 is 1's own (honest) claim 5, but 2 claims
	// 2→4 = 0.01, so the path via 2 costs 5.01 < 6 via 3. The liar
	// wins the traffic.
	if next[4] != 2 {
		t.Fatalf("liar failed to attract: next hop = %d", next[4])
	}
}

func TestTwoSidedMaxDefeatsAttraction(t *testing.T) {
	g := byzDiamond()
	rng := sim.NewRNG(2)
	keys := GenerateKeys(g, rng)
	db := NewAdDatabase(g, SignedTwoSided, keys)
	for _, id := range g.NodeIDs() {
		var ad *Advertisement
		if id == 2 {
			ad = LiarAdvertisement(g, 2, 0.01, nil)
		} else {
			ad = HonestAdvertisement(g, id)
		}
		ad.Sign(keys[id])
		db.Flood(ad)
	}
	// max(0.01, honest 5) = 5 on both of the liar's links: traffic
	// stays on the honest path.
	next := db.SPF(1)
	if next[4] != 3 {
		t.Fatalf("two-sided max failed: next hop = %d", next[4])
	}
}

func TestForgedAdvertisementRejected(t *testing.T) {
	g := byzDiamond()
	rng := sim.NewRNG(3)
	keys := GenerateKeys(g, rng)
	db := NewAdDatabase(g, SignedTwoSided, keys)
	// The liar forges node 3's advertisement, claiming 3's links cost
	// 100 (repelling traffic from the honest path).
	forged := &Advertisement{From: 3, Costs: map[topology.NodeID]float64{1: 100, 4: 100}}
	forged.Sign(keys[2]) // signed with the WRONG key
	db.Flood(forged)
	if db.ads[3] != nil {
		t.Fatal("forged advertisement accepted")
	}
	if db.Rejected == 0 {
		t.Fatal("forgery not counted")
	}
	// Unsigned ads also rejected.
	db.Flood(HonestAdvertisement(g, 4))
	if db.ads[4] != nil {
		t.Fatal("unsigned advertisement accepted")
	}
}

// A signature covers the exact costs SPF reads: an honest
// advertisement whose cost is nudged by less than any fixed number of
// printed decimals hides must be rejected, as a forgery is.
func TestTamperedCostRejected(t *testing.T) {
	g := byzDiamond()
	keys := GenerateKeys(g, sim.NewRNG(3))
	db := NewAdDatabase(g, SignedTwoSided, keys)
	ad := HonestAdvertisement(g, 1)
	ad.Sign(keys[1])
	ad.Costs[3] += 1e-9
	db.Flood(ad)
	if db.ads[1] != nil || db.Rejected != 1 {
		t.Fatalf("advertisement with a tampered cost accepted (rejected %d)", db.Rejected)
	}
}

func TestPhantomLinksStripped(t *testing.T) {
	g := byzDiamond()
	rng := sim.NewRNG(4)
	keys := GenerateKeys(g, rng)
	db := NewAdDatabase(g, SignedTwoSided, keys)
	// Liar claims a direct (nonexistent) link 2→... node 2 is not
	// adjacent to 3; claim a phantom 2-3 link.
	ad := LiarAdvertisement(g, 2, 0.01, []topology.NodeID{3})
	ad.Sign(keys[2])
	db.Flood(ad)
	if _, ok := db.ads[2].Costs[3]; ok {
		t.Fatal("phantom link survived")
	}
	if db.Rejected == 0 {
		t.Fatal("phantom not counted")
	}
}

func TestPhantomLinksWorkWhenTrusted(t *testing.T) {
	// Under TrustAll the phantom shortcut is believed.
	g := byzDiamond()
	db := NewAdDatabase(g, TrustAll, nil)
	for _, id := range g.NodeIDs() {
		if id == 2 {
			db.Flood(LiarAdvertisement(g, 2, 0.01, []topology.NodeID{4}))
		} else {
			db.Flood(HonestAdvertisement(g, id))
		}
	}
	if d := routeCost(t, Compute(db), db.EffectiveCost, 1, 4); d > 5.02 {
		t.Fatalf("phantom shortcut not believed: dist = %v", d)
	}
}

func TestLiarCanStillRepel(t *testing.T) {
	// The defense bounds attraction, not repulsion: a node raising its
	// own costs pushes traffic away — which is its right (it is
	// declining to carry), so the tussle stays within the design.
	g := byzDiamond()
	rng := sim.NewRNG(5)
	keys := GenerateKeys(g, rng)
	db := NewAdDatabase(g, SignedTwoSided, keys)
	for _, id := range g.NodeIDs() {
		var ad *Advertisement
		if id == 3 {
			ad = LiarAdvertisement(g, 3, 100, nil) // node 3 repels
		} else {
			ad = HonestAdvertisement(g, id)
		}
		ad.Sign(keys[id])
		db.Flood(ad)
	}
	next := db.SPF(1)
	if next[4] != 2 {
		t.Fatalf("repulsion failed: next hop = %d", next[4])
	}
}

func TestSignedSPFOnGeneratedTopology(t *testing.T) {
	rng := sim.NewRNG(6)
	g := topology.GenerateHierarchy(topology.DefaultHierarchy(), rng)
	keys := GenerateKeys(g, rng)
	db := NewAdDatabase(g, SignedTwoSided, keys)
	for _, id := range g.NodeIDs() {
		ad := HonestAdvertisement(g, id)
		ad.Sign(keys[id])
		db.Flood(ad)
	}
	ids := g.NodeIDs()
	next := db.SPF(ids[0])
	for _, dst := range ids[1:] {
		if _, ok := next[dst]; !ok {
			t.Fatalf("unreachable %d under honest signed ads", dst)
		}
	}
}
