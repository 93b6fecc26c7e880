package invariant

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/chaos"
)

// The CI sweep runs 500 trials per seed through cmd/tussle-check; this
// in-package test keeps a smaller always-on slice of the same property.
func TestSweepClean(t *testing.T) {
	for _, seed := range []uint64{42, 7} {
		res := Sweep(Config{Trials: 60, Seed: seed, Shrink: true})
		if !res.Clean() {
			f := res.Failures[0]
			t.Fatalf("seed %d: trial %d (seed %d) violated: %s", seed, f.Trial, f.Seed, f.Violations[0])
		}
		if res.Trials != 60 {
			t.Fatalf("Trials = %d, want 60", res.Trials)
		}
	}
}

func TestSweepDeterministic(t *testing.T) {
	a := Sweep(Config{Trials: 10, Seed: 99})
	b := Sweep(Config{Trials: 10, Seed: 99})
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("same config, different results:\n%s\nvs\n%s", ja, jb)
	}
}

func TestRunScenarioDeterministic(t *testing.T) {
	sc := Generate(4242)
	a := runScenario(sc, nil, nil)
	b := runScenario(sc, nil, nil)
	ja, _ := json.Marshal(a.reg.Snapshot())
	jb, _ := json.Marshal(b.reg.Snapshot())
	if string(ja) != string(jb) {
		t.Fatal("same scenario, different registry snapshots")
	}
	if len(a.violations) != len(b.violations) {
		t.Fatalf("same scenario, different violations: %d vs %d", len(a.violations), len(b.violations))
	}
}

func TestTrialSeedDecorrelated(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		s := trialSeed(42, i)
		if seen[s] {
			t.Fatalf("trialSeed collision at trial %d", i)
		}
		seen[s] = true
	}
	if trialSeed(42, 0) == trialSeed(7, 0) {
		t.Fatal("different sweep seeds produced the same trial seed")
	}
}

func TestParseReproRejects(t *testing.T) {
	if _, err := ParseRepro([]byte(`{"invariant":"x"}`)); err == nil {
		t.Fatal("repro without a scenario accepted")
	}
	if _, err := ParseRepro([]byte(`{"bogus_field":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	sc := Generate(5)
	r := &Repro{Invariant: Conservation, Detail: "d", Scenario: sc}
	buf, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseRepro(append(buf, []byte("{}")...)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing data accepted: %v", err)
	}
	// A scenario referencing nodes outside its derived topology must be
	// rejected even though the JSON is well-formed.
	bad := *sc
	bad.Traffic = append([]Traffic(nil), sc.Traffic...)
	bad.Traffic[0].Src = 9999
	rb := &Repro{Invariant: Conservation, Scenario: &bad}
	buf, err = rb.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseRepro(buf); err == nil {
		t.Fatal("scenario with out-of-topology traffic endpoint accepted")
	}
}

func TestShrinkEventsSubsequence(t *testing.T) {
	sc := Generate(17)
	orig := len(sc.Plan.Events)
	// Predicate: the plan still contains at least one event of the first
	// event's kind.
	kind := sc.Plan.Events[0].Kind
	shrunk := shrinkEvents(sc.Plan, func(p *chaos.Plan) bool {
		for i := range p.Events {
			if p.Events[i].Kind == kind {
				return true
			}
		}
		return false
	})
	if len(shrunk.Events) > orig {
		t.Fatalf("shrinking grew the plan: %d > %d", len(shrunk.Events), orig)
	}
	if len(shrunk.Events) != 1 || shrunk.Events[0].Kind != kind {
		t.Fatalf("expected exactly one %s event, got %d events", kind, len(shrunk.Events))
	}
	if err := shrunk.Validate(); err != nil {
		t.Fatalf("shrunk plan invalid: %v", err)
	}
}
