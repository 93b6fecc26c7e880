package actornet

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestDurabilityRisesWithoutEntry(t *testing.T) {
	n := SeedInternet(sim.NewRNG(1))
	d0 := n.Durability()
	for i := 0; i < 100; i++ {
		n.Step(0) // no new entrants
	}
	d1 := n.Durability()
	if d1 <= d0 {
		t.Fatalf("durability %v -> %v should rise with no entry", d0, d1)
	}
	if d1 < 0.95 {
		t.Fatalf("after 100 quiet rounds durability = %v, want near 1", d1)
	}
}

func TestEntryKeepsNetworkChangeable(t *testing.T) {
	quiet := SeedInternet(sim.NewRNG(2))
	churning := SeedInternet(sim.NewRNG(2))
	for i := 0; i < 150; i++ {
		quiet.Step(0)
		churning.Step(0.5)
	}
	if churning.Durability() >= quiet.Durability() {
		t.Fatalf("churn durability %v should be below quiet %v",
			churning.Durability(), quiet.Durability())
	}
	if len(churning.Actors()) == len(quiet.Actors()) {
		t.Fatal("no entrants arrived at 50% entry rate")
	}
}

func TestFrozenDetection(t *testing.T) {
	n := SeedInternet(sim.NewRNG(3))
	if n.Frozen(0.9) {
		t.Fatal("fresh network should not be frozen")
	}
	for i := 0; i < 200; i++ {
		n.Step(0)
	}
	if !n.Frozen(0.9) {
		t.Fatalf("quiet network should freeze; durability = %v", n.Durability())
	}
}

func TestChangeSuccessDeclinesWithAge(t *testing.T) {
	n := SeedInternet(sim.NewRNG(4))
	young := 0
	for i := 0; i < 200; i++ {
		if n.AttemptChange() {
			young++
		}
	}
	for i := 0; i < 200; i++ {
		n.Step(0)
	}
	old := 0
	for i := 0; i < 200; i++ {
		if n.AttemptChange() {
			old++
		}
	}
	if old >= young {
		t.Fatalf("old network accepted %d changes vs young %d — should be harder to change as it grows up", old, young)
	}
	if n.ChangeSuccessRate() <= 0 || n.ChangeSuccessRate() >= 1 {
		t.Fatalf("success rate = %v", n.ChangeSuccessRate())
	}
}

func TestAlignmentBounds(t *testing.T) {
	f := func(seed uint64, rate float64) bool {
		r := rate - float64(int(rate)) // fractional part in [0,1)
		if r < 0 {
			r = -r
		}
		n := SeedInternet(sim.NewRNG(seed))
		for i := 0; i < 50; i++ {
			n.Step(r)
		}
		for _, a := range n.Actors() {
			for _, b := range n.Actors() {
				v := alignment(n, a, b)
				if v < 0 || v > 1 {
					return false
				}
			}
		}
		d := n.Durability()
		return d >= 0 && d <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAlignClamps(t *testing.T) {
	n := New(sim.NewRNG(5))
	n.AddActor("a")
	n.AddActor("b")
	n.Align("a", "b", 5)
	if alignment(n, "a", "b") != 1 {
		t.Fatal("alignment not clamped to 1")
	}
	n.Align("a", "b", -3)
	if alignment(n, "a", "b") != 0 {
		t.Fatal("alignment not clamped to 0")
	}
}

func TestAlignSymmetric(t *testing.T) {
	n := New(sim.NewRNG(6))
	n.AddActor("a")
	n.AddActor("b")
	n.Align("a", "b", 0.4)
	if alignment(n, "a", "b") != alignment(n, "b", "a") {
		t.Fatal("alignment asymmetric")
	}
}

func TestDuplicateActorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n := New(sim.NewRNG(7))
	n.AddActor("x")
	n.AddActor("x")
}

func TestEmptyNetworkDurability(t *testing.T) {
	n := New(sim.NewRNG(8))
	if n.Durability() != 0 {
		t.Fatal("empty network durability should be 0")
	}
	n.Step(1) // must not panic with no actors
}

func TestEntrantsGetDistinctNames(t *testing.T) {
	n := SeedInternet(sim.NewRNG(9))
	for i := 0; i < 50; i++ {
		n.Step(1) // entry every round
	}
	if len(n.Actors()) != 55 {
		t.Fatalf("actors = %d", len(n.Actors()))
	}
}

func TestDeterminism(t *testing.T) {
	run := func() float64 {
		n := SeedInternet(sim.NewRNG(42))
		for i := 0; i < 80; i++ {
			n.Step(0.3)
		}
		return n.Durability()
	}
	if run() != run() {
		t.Fatal("same seed produced different trajectories")
	}
}

// Aligning with an unknown actor, or an actor with itself, panics with
// the actor's name before anything changes: no phantom partner is left
// behind to skew later rounds.
func TestAlignRejectsUnknownOrSelf(t *testing.T) {
	for _, c := range []struct{ a, b, named string }{
		{"a", "ghost", "ghost"},
		{"ghost", "a", "ghost"},
		{"a", "a", "a"},
	} {
		n := New(sim.NewRNG(10))
		n.AddActor("a")
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, fmt.Sprintf("%q", c.named)) {
					t.Fatalf("Align(%q, %q) panicked with %q, want %q named", c.a, c.b, msg, c.named)
				}
			}()
			n.Align(c.a, c.b, 0.9)
		}()
		n.AddActor("b")
		n.Align("a", "b", 0.4)
		if d := n.Durability(); d != 0.4 {
			t.Fatalf("after the failed Align(%q, %q), durability = %v, want 0.4 from the one real edge", c.a, c.b, d)
		}
	}
}

// alignment returns the current alignment between two actors: 0 when
// either is unknown or they are not partners.
func alignment(n *Network, a, b string) float64 {
	if ai, bi := n.index(a), n.index(b); ai >= 0 && bi >= 0 {
		if e := n.edge(ai, bi); e >= 0 {
			return n.align[e]
		}
	}
	return 0
}
