package experiments

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// snapshotJSON renders a registry snapshot the way tussle-bench -metrics
// does: deterministic JSON, sections sorted by metric name.
func snapshotJSON(t *testing.T, reg *obs.Registry) []byte {
	t.Helper()
	b, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Instrumented runs must produce results identical to uninstrumented
// runs — observation never perturbs behavior.
func TestObsDoesNotPerturbResults(t *testing.T) {
	for _, e := range registry {
		if e.RunObs == nil {
			continue
		}
		want := e.Run(42)
		got := e.RunWith(42, obs.NewRegistry())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: instrumented run diverged from plain run", e.ID)
		}
	}
}

// The suite-level metrics aggregate must be byte-identical across runs
// at the same seed and across parallelism levels: per-worker shards merge
// commutatively, so the work-stealing schedule cannot leak into the
// snapshot. This is the acceptance criterion behind tussle-bench -metrics.
func TestRunAllMetricsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite metrics check is slow")
	}
	run := func(p int) []byte {
		reg := obs.NewRegistry()
		RunAll(42, Options{Parallelism: p, Obs: reg})
		return snapshotJSON(t, reg)
	}
	want := run(1)
	if len(want) <= len("{}") {
		t.Fatalf("suite snapshot empty: %s", want)
	}
	for _, p := range []int{1, 2, 4} {
		if got := run(p); string(got) != string(want) {
			t.Fatalf("parallelism %d: metrics snapshot diverged\n got: %s\nwant: %s", p, got, want)
		}
	}
}
