package linkstate

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Repeated SPF calls on one Database reuse one shortest-path search;
// every call must nonetheless return results identical to a fresh
// database's, including after cost changes between calls.
func TestSPFScratchReuseIsStateless(t *testing.T) {
	g := topology.GenerateHierarchy(topology.DefaultHierarchy(), sim.NewRNG(3))
	db := NewDatabase(g)
	for round := 0; round < 3; round++ {
		for _, src := range g.NodeIDs() {
			if !reflect.DeepEqual(db.SPF(src), NewDatabase(g).SPF(src)) {
				t.Fatalf("round %d src %d: reused-scratch SPF diverged from fresh database", round, src)
			}
		}
	}
	// A cost override between calls must be reflected, not masked by
	// stale scratch state.
	ids := g.NodeIDs()
	a := ids[0]
	db.SPF(a)
	for _, nb := range g.Neighbors(a) {
		db.SetCost(a, nb, 1e6)
	}
	tables := Compute(db)
	fresh := NewDatabase(g)
	for _, nb := range g.Neighbors(a) {
		fresh.SetCost(a, nb, 1e6)
	}
	freshTables := Compute(fresh)
	if !reflect.DeepEqual(tables[a].Next, freshTables[a].Next) {
		t.Fatal("SPF after SetCost diverged from fresh database with same overrides")
	}
	for _, b := range ids[1:] {
		if d, want := routeCost(t, tables, db.Cost, a, b), routeCost(t, freshTables, fresh.Cost, a, b); d != want {
			t.Fatalf("distance to %d after SetCost = %v, fresh database %v", b, d, want)
		}
	}
}

// Compute (one SPF per node) should not allocate the search's frontier
// or bookkeeping per call once the database's search has warmed up —
// only the returned tables themselves.
func TestSPFScratchReducesAllocs(t *testing.T) {
	g := topology.GenerateHierarchy(topology.DefaultHierarchy(), sim.NewRNG(3))
	db := NewDatabase(g)
	src := g.NodeIDs()[0]
	db.SPF(src) // warm scratch
	warm := testing.AllocsPerRun(50, func() { db.SPF(src) })
	cold := testing.AllocsPerRun(50, func() { NewDatabase(g).SPF(src) })
	if warm >= cold {
		t.Fatalf("scratch reuse saved nothing: warm %.0f allocs/op vs cold %.0f", warm, cold)
	}
}

// AdDatabase.SPF reusing its search must match a fresh AdDatabase fed
// the same advertisements.
func TestAdSPFScratchReuseIsStateless(t *testing.T) {
	g := topology.GenerateHierarchy(topology.DefaultHierarchy(), sim.NewRNG(5))
	rng := sim.NewRNG(11)
	keys := GenerateKeys(g, rng)
	flood := func(db *AdDatabase) {
		for _, id := range g.NodeIDs() {
			ad := HonestAdvertisement(g, id)
			ad.Sign(keys[id])
			db.Flood(ad)
		}
	}
	db := NewAdDatabase(g, SignedTwoSided, keys)
	flood(db)
	for round := 0; round < 3; round++ {
		for _, src := range g.NodeIDs() {
			next := db.SPF(src)
			fresh := NewAdDatabase(g, SignedTwoSided, keys)
			flood(fresh)
			if !reflect.DeepEqual(next, fresh.SPF(src)) {
				t.Fatalf("round %d src %d: reused-scratch AdDatabase SPF diverged", round, src)
			}
		}
	}
}
