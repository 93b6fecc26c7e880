package invariant

import (
	"bytes"
	"testing"

	"repro/internal/chaos"
)

// FuzzShrinkRoundTrip feeds arbitrary chaos-plan JSON through the
// shrinker and asserts the shrinking contract: given a valid plan and a
// deterministic predicate the plan satisfies, the shrunk plan (a) is no
// larger, (b) still satisfies the predicate, (c) still validates, and
// (d) survives the canonical Encode → ParsePlan → Encode round trip as a
// fixed point. Invalid inputs are skipped — ParsePlan's own rejection is
// covered by the chaos package tests.
func FuzzShrinkRoundTrip(f *testing.F) {
	seed42, err := Generate(42).Plan.Encode()
	if err != nil {
		f.Fatal(err)
	}
	seed7, err := Generate(7).Plan.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed42)
	f.Add(seed7)
	f.Add([]byte(`{"name":"tiny","seed":1,"events":[{"at_ms":1,"kind":"heal"}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := chaos.ParsePlan(data)
		if err != nil || len(p.Events) == 0 {
			return
		}
		// Deterministic predicate: the plan keeps at least one event of
		// the first event's kind.
		kind := p.Events[0].Kind
		pred := func(c *chaos.Plan) bool {
			for i := range c.Events {
				if c.Events[i].Kind == kind {
					return true
				}
			}
			return false
		}
		shrunk := shrinkEvents(p, pred)
		if len(shrunk.Events) > len(p.Events) {
			t.Fatalf("shrunk plan grew: %d > %d events", len(shrunk.Events), len(p.Events))
		}
		if !pred(shrunk) {
			t.Fatalf("shrunk plan lost the predicate (kind %s)", kind)
		}
		if err := shrunk.Validate(); err != nil {
			t.Fatalf("shrinking a valid plan produced an invalid one: %v", err)
		}
		enc, err := shrunk.Encode()
		if err != nil {
			t.Fatalf("encode shrunk plan: %v", err)
		}
		back, err := chaos.ParsePlan(enc)
		if err != nil {
			t.Fatalf("shrunk plan does not re-parse: %v", err)
		}
		enc2, err := back.Encode()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("shrunk plan encoding is not a fixed point:\n%s\nvs\n%s", enc, enc2)
		}
	})
}
