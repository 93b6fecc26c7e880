package fiber

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func threeTenants(cheat bool) []*Tenant {
	return []*Tenant{
		{Name: "isp-a", Entitlement: 0.5, Demand: 600},
		{Name: "isp-b", Entitlement: 0.25, Demand: 300},
		{Name: "isp-c", Entitlement: 0.25, Demand: func() float64 {
			if cheat {
				return 2000 // offered far beyond entitlement
			}
			return 250
		}(), Cheats: cheat},
	}
}

func TestTDMFairUnderEntitledLoad(t *testing.T) {
	f := New(1000, TDM, 250, threeTenants(false)...)
	total := f.Measure()
	// Demands 600+300+250 = 1150 > 1000: weighted fair split.
	if total > 1000+1e-6 {
		t.Fatalf("delivered %v over capacity", total)
	}
	// isp-a is entitled to 500 and demands 600: must get >= 500.
	if f.Tenants[0].Delivered < 500-1e-6 {
		t.Fatalf("isp-a got %v, entitled to 500", f.Tenants[0].Delivered)
	}
}

func TestTDMEnforcementCapsCheater(t *testing.T) {
	f := New(1000, TDM, 250, threeTenants(true)...)
	f.Measure()
	cheater := f.Tenants[2]
	// The cheater demands 2000 but is entitled to 250; with everyone
	// at or over entitlement, WFQ must hold it near 250.
	if cheater.Delivered > 300 {
		t.Fatalf("cheater got %v of 1000, entitlement 250", cheater.Delivered)
	}
	// And the honest tenants keep their entitlements.
	if f.Tenants[0].Delivered < 500-1e-6 || f.Tenants[1].Delivered < 250-1e-6 {
		t.Fatalf("honest tenants starved: %v / %v",
			f.Tenants[0].Delivered, f.Tenants[1].Delivered)
	}
}

func TestTDMBackfillsIdleCapacity(t *testing.T) {
	// When one tenant is idle, others may use its share — that is
	// efficiency, not unfairness.
	tenants := []*Tenant{
		{Name: "busy", Entitlement: 0.5, Demand: 1000},
		{Name: "idle", Entitlement: 0.5, Demand: 0},
	}
	f := New(1000, TDM, 500, tenants...)
	f.Measure()
	if tenants[0].Delivered < 999 {
		t.Fatalf("busy tenant got %v, idle capacity wasted", tenants[0].Delivered)
	}
}

func TestWDMPhysicalIsolation(t *testing.T) {
	f := New(1000, WDM, 250, threeTenants(true)...)
	f.Measure()
	cheater := f.Tenants[2]
	// One lambda = 250: the cheater physically cannot exceed it.
	if cheater.Delivered != 250 {
		t.Fatalf("cheater got %v on its lambda", cheater.Delivered)
	}
	// isp-a has 2 lambdas (0.5 * 1000 / 250): 500 capacity, demands 600.
	if f.Tenants[0].Delivered != 500 {
		t.Fatalf("isp-a got %v", f.Tenants[0].Delivered)
	}
}

func TestWDMNoBackfill(t *testing.T) {
	// The flip side of physical isolation: idle lambdas are wasted.
	tenants := []*Tenant{
		{Name: "busy", Entitlement: 0.5, Demand: 1000},
		{Name: "idle", Entitlement: 0.5, Demand: 0},
	}
	f := New(1000, WDM, 500, tenants...)
	total := f.Measure()
	if tenants[0].Delivered != 500 {
		t.Fatalf("busy tenant got %v, lambdas don't backfill", tenants[0].Delivered)
	}
	if total != 500 {
		t.Fatalf("total %v: half the fiber idle", total)
	}
}

func TestFaultBlastRadius(t *testing.T) {
	// WDM: a lambda fault kills one tenant.
	fw := New(1000, WDM, 250, threeTenants(false)...)
	if fw.BlastRadius() != 1 {
		t.Fatalf("WDM blast radius = %d", fw.BlastRadius())
	}
	// TDM: a scheduler fault kills everyone.
	ft := New(1000, TDM, 250, threeTenants(false)...)
	if ft.BlastRadius() != 3 {
		t.Fatalf("TDM blast radius = %d", ft.BlastRadius())
	}
}

func TestDelaySimWFQHoldsAtPacketLevel(t *testing.T) {
	rng := sim.NewRNG(1)
	tenants := threeTenants(true)
	f := New(1e6, TDM, 2.5e5, tenants...)
	delays, err := f.DelaySim(rng, 2000)
	if err != nil {
		t.Fatal(err)
	}
	// The cheater floods, so its queueing delay must be the worst; the
	// entitled tenants stay comparatively fast.
	if delays["isp-c"] <= delays["isp-a"] {
		t.Fatalf("cheater delay %v should exceed honest %v", delays["isp-c"], delays["isp-a"])
	}
}

func TestDelaySimTooManyTenants(t *testing.T) {
	var many []*Tenant
	for i := 0; i < 6; i++ {
		many = append(many, &Tenant{Name: "t", Entitlement: 0.1, Demand: 1})
	}
	f := New(1000, TDM, 100, many...)
	if _, err := f.DelaySim(sim.NewRNG(1), 10); err == nil {
		t.Fatal("expected tenant-count error")
	}
}

func TestTDMConservationQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		n := rng.Intn(4) + 1
		var tenants []*Tenant
		per := 1.0 / float64(n)
		var demand float64
		for i := 0; i < n; i++ {
			d := rng.Range(0, 800)
			demand += d
			tenants = append(tenants, &Tenant{Name: "t", Entitlement: per, Demand: d})
		}
		fac := New(1000, TDM, 100, tenants...)
		total := fac.Measure()
		want := math.Min(1000, demand)
		return math.Abs(total-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDomainString(t *testing.T) {
	if TDM.String() != "tdm" || WDM.String() != "wdm" {
		t.Fatal("domain names wrong")
	}
}
