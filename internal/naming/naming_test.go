package naming

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/sim"
)

func TestRegisterResolve(t *testing.T) {
	r := NewRegistry(true)
	addr := packet.MakeAddr(3, 1)
	if _, err := r.Register(SpaceMachine, "host-1", "alice", addr); err != nil {
		t.Fatal(err)
	}
	got, err := r.Resolve(SpaceMachine, "host-1")
	if err != nil || got != addr {
		t.Fatalf("resolve = %v, %v", got, err)
	}
	if _, err := r.Resolve(SpaceMachine, "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing err = %v", err)
	}
}

func TestRegisterCollision(t *testing.T) {
	r := NewRegistry(true)
	if _, err := r.Register(SpaceMachine, "x", "a", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register(SpaceMachine, "x", "b", 2); !errors.Is(err, ErrTaken) {
		t.Fatalf("collision err = %v", err)
	}
}

func TestIsolatedSpacesIndependent(t *testing.T) {
	r := NewRegistry(true)
	if _, err := r.Register(SpaceMachine, "acme", "bob", 1); err != nil {
		t.Fatal(err)
	}
	// Same name in a different space: fine when isolated.
	if _, err := r.Register(SpaceBrand, "acme", "acme-corp", 2); err != nil {
		t.Fatalf("isolated spaces should not collide: %v", err)
	}
}

func TestEntangledSpacesCollide(t *testing.T) {
	r := NewRegistry(false)
	if _, err := r.Register(SpaceMachine, "acme", "bob", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register(SpaceBrand, "acme", "acme-corp", 2); !errors.Is(err, ErrTaken) {
		t.Fatal("entangled registry should have one namespace")
	}
}

func TestDisputeEntangledCollateral(t *testing.T) {
	// Bob runs machines named after the mark (innocently or not);
	// Carol expresses the brand. In the entangled design the ruling
	// suspends everything matching, breaking machine names.
	r := NewRegistry(false)
	r.Register(SpaceMachine, "acme.mail-server", "bob", 1)
	r.Register(SpaceMachine, "acme-backup", "bob", 2)
	r.Register(SpaceBrand, "acme", "carol", 3)
	r.Register(SpaceMachine, "unrelated", "bob", 4)
	use := map[string]string{"acme": "brand"}

	ruling := r.FileDispute(Dispute{Mark: "acme", Holder: "acme-corp"}, use)
	if len(ruling.Suspended) != 3 {
		t.Fatalf("suspended = %v", ruling.Suspended)
	}
	if ruling.Collateral != 2 {
		t.Fatalf("collateral = %d, want 2 machine names", ruling.Collateral)
	}
	if _, err := r.Resolve(SpaceMachine, "acme-backup"); !errors.Is(err, ErrSuspended) {
		t.Fatalf("machine name survived: %v", err)
	}
	if _, err := r.Resolve(SpaceMachine, "unrelated"); err != nil {
		t.Fatalf("unrelated name broken: %v", err)
	}
}

func TestDisputeIsolatedNoCollateral(t *testing.T) {
	r := NewRegistry(true)
	r.Register(SpaceMachine, "acme.mail-server", "bob", 1)
	r.Register(SpaceMachine, "acme-backup", "bob", 2)
	r.Register(SpaceBrand, "acme", "carol", 3)

	ruling := r.FileDispute(Dispute{Mark: "acme", Holder: "acme-corp"}, nil)
	if ruling.Collateral != 0 {
		t.Fatalf("isolated design leaked collateral: %d", ruling.Collateral)
	}
	if len(ruling.Suspended) != 1 || ruling.Suspended[0] != "acme" {
		t.Fatalf("suspended = %v", ruling.Suspended)
	}
	// Machine names keep resolving.
	if _, err := r.Resolve(SpaceMachine, "acme-backup"); err != nil {
		t.Fatalf("machine name broken in isolated design: %v", err)
	}
}

func TestDisputeHolderKeepsOwnName(t *testing.T) {
	r := NewRegistry(true)
	r.Register(SpaceBrand, "acme", "acme-corp", 1)
	ruling := r.FileDispute(Dispute{Mark: "acme", Holder: "acme-corp"}, nil)
	if len(ruling.Suspended) != 0 {
		t.Fatalf("holder's own registration suspended: %v", ruling.Suspended)
	}
}

func TestDisputeIdempotentSuspension(t *testing.T) {
	r := NewRegistry(true)
	r.Register(SpaceBrand, "acme", "carol", 1)
	first := r.FileDispute(Dispute{Mark: "acme", Holder: "corp"}, nil)
	second := r.FileDispute(Dispute{Mark: "acme", Holder: "corp"}, nil)
	if len(first.Suspended) != 1 || len(second.Suspended) != 0 {
		t.Fatalf("suspensions: %v then %v", first.Suspended, second.Suspended)
	}
}

func TestMatchRules(t *testing.T) {
	cases := []struct {
		name, mark string
		want       bool
	}{
		{"acme", "acme", true},
		{"acme.shop", "acme", true},
		{"acme-store", "acme", true},
		{"shop.acme", "acme", true},
		{"acmeish", "acme", false},
		{"other", "acme", false},
	}
	for _, c := range cases {
		if got := defaultMatch(c.name, c.mark); got != c.want {
			t.Errorf("match(%q,%q) = %v", c.name, c.mark, c.want)
		}
	}
}

func TestResolverHierarchyWalk(t *testing.T) {
	root := NewRoot()
	example := root.Delegate("example")
	shop := example.Delegate("shop")
	shop.Bind("www", packet.MakeAddr(7, 1))

	now := sim.Time(0)
	res := NewResolver(root, 10*sim.Second, func() sim.Time { return now })
	addr, ok := res.Resolve("www.shop.example")
	if !ok || addr != packet.MakeAddr(7, 1) {
		t.Fatalf("resolve = %v, %v", addr, ok)
	}
	// The walk needs every zone on the way: a name under a zone no
	// server delegates does not resolve.
	if addr, ok := res.Resolve("www.shop.other"); ok {
		t.Fatalf("undelegated zone resolved to %v", addr)
	}
}

func TestResolverCache(t *testing.T) {
	root := NewRoot()
	z := root.Delegate("z")
	z.Bind("a", 5)
	now := sim.Time(0)
	res := NewResolver(root, 10*sim.Second, func() sim.Time { return now })
	res.Resolve("a.z")
	// A rebinding at the zone stays unseen while the cached entry
	// lives: the resolver does not ask the servers again.
	z.Bind("a", 6)
	if addr, _ := res.Resolve("a.z"); addr != 5 {
		t.Fatalf("cached resolve = %v, want 5", addr)
	}
	// Expiry forces re-resolution.
	now = 11 * sim.Second
	if addr, _ := res.Resolve("a.z"); addr != 6 {
		t.Fatalf("resolve after expiry = %v, want 6", addr)
	}
}

func TestResolverInvalidate(t *testing.T) {
	root := NewRoot()
	z := root.Delegate("z")
	z.Bind("a", 5)
	now := sim.Time(0)
	res := NewResolver(root, 100*sim.Second, func() sim.Time { return now })
	res.Resolve("a.z")
	// Host renumbers: rebind and invalidate (dynamic update).
	z.Bind("a", 9)
	res.Invalidate("a.z")
	addr, ok := res.Resolve("a.z")
	if !ok || addr != 9 {
		t.Fatalf("post-renumber resolve = %v", addr)
	}
}

func TestResolverMisses(t *testing.T) {
	root := NewRoot()
	res := NewResolver(root, sim.Second, func() sim.Time { return 0 })
	if _, ok := res.Resolve("nope.zone"); ok {
		t.Fatal("nonexistent delegation resolved")
	}
	z := root.Delegate("zone")
	if _, ok := res.Resolve("nope.zone"); ok {
		t.Fatal("nonexistent record resolved")
	}
	z.Bind("yes", 1)
	if _, ok := res.Resolve("yes.zone"); !ok {
		t.Fatal("existing record failed")
	}
}

func TestRegistryNeverPanicsQuick(t *testing.T) {
	r := NewRegistry(false)
	f := func(name, owner, mark string, isolated bool) bool {
		reg := r
		if isolated {
			reg = NewRegistry(true)
		}
		_, _ = reg.Register(SpaceMachine, name, owner, 1)
		_ = reg.FileDispute(Dispute{Mark: mark, Holder: owner}, nil)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
