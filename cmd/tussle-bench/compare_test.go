package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeSuite(t *testing.T, dir, name string, exps []expBench) string {
	t.Helper()
	buf, err := json.Marshal(suiteBench{Seed: 42, Iters: 3, Experiments: exps})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareSuitesDetectsRegression(t *testing.T) {
	oldSB := &suiteBench{Experiments: []expBench{
		{ID: "E1", NsPerOp: 1000, AllocsPerOp: 10},
		{ID: "E2", NsPerOp: 2000, AllocsPerOp: 20},
		{ID: "E3", NsPerOp: 4000, AllocsPerOp: 40},
	}}
	newSB := &suiteBench{Experiments: []expBench{
		{ID: "E1", NsPerOp: 1050, AllocsPerOp: 10}, // +5%: within tolerance
		{ID: "E2", NsPerOp: 2500, AllocsPerOp: 20}, // +25%: regression
		{ID: "E3", NsPerOp: 3000, AllocsPerOp: 30}, // improvement
		{ID: "E99", NsPerOp: 999, AllocsPerOp: 1},  // new experiment: never fails
	}}
	deltas, regressed := compareSuites(oldSB, newSB, 0.10)
	if len(deltas) != 3 {
		t.Fatalf("deltas = %d, want 3 (E99 has no baseline)", len(deltas))
	}
	if len(regressed) != 1 || regressed[0].ID != "E2" {
		t.Fatalf("regressed = %+v, want exactly E2", regressed)
	}
	// Deltas are sorted worst-first.
	if deltas[0].ID != "E2" || deltas[2].ID != "E3" {
		t.Fatalf("delta order = %s,%s,%s; want E2 first, E3 last",
			deltas[0].ID, deltas[1].ID, deltas[2].ID)
	}
	// A looser tolerance passes the same pair.
	if _, reg := compareSuites(oldSB, newSB, 0.30); len(reg) != 0 {
		t.Fatalf("tolerance 0.30 still flags %+v", reg)
	}
}

// Alloc growth fails the gate at any size, regardless of the ns/op
// tolerance — alloc counts are deterministic, so one extra alloc/op is a
// real regression.
func TestCompareSuitesGatesAllocs(t *testing.T) {
	oldSB := &suiteBench{Experiments: []expBench{
		{ID: "E1", NsPerOp: 1000, AllocsPerOp: 10},
		{ID: "E2", NsPerOp: 1000, AllocsPerOp: 10},
	}}
	newSB := &suiteBench{Experiments: []expBench{
		{ID: "E1", NsPerOp: 900, AllocsPerOp: 11}, // faster but +1 alloc: regression
		{ID: "E2", NsPerOp: 1000, AllocsPerOp: 9}, // fewer allocs: fine
	}}
	_, regressed := compareSuites(oldSB, newSB, 0.10)
	if len(regressed) != 1 || regressed[0].ID != "E1" || !regressed[0].AllocRegressed {
		t.Fatalf("regressed = %+v, want exactly E1 flagged for allocs", regressed)
	}
	// No tolerance loosens the alloc gate.
	if _, reg := compareSuites(oldSB, newSB, 10.0); len(reg) != 1 {
		t.Fatalf("tolerance 10.0 dropped the alloc regression: %+v", reg)
	}

	var out strings.Builder
	dir := t.TempDir()
	oldPath := writeSuite(t, dir, "old.json", oldSB.Experiments)
	newPath := writeSuite(t, dir, "new.json", newSB.Experiments)
	if code := runCompare(&out, oldPath, newPath, 0.10); code != 1 {
		t.Fatalf("alloc-regressed compare exit = %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "allocs 10->11") {
		t.Fatalf("missing alloc diagnostics:\n%s", out.String())
	}
}

func TestRunCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeSuite(t, dir, "old.json", []expBench{
		{ID: "E1", NsPerOp: 1000, AllocsPerOp: 100},
	})
	okPath := writeSuite(t, dir, "ok.json", []expBench{
		{ID: "E1", NsPerOp: 1080, AllocsPerOp: 90},
	})
	badPath := writeSuite(t, dir, "bad.json", []expBench{
		{ID: "E1", NsPerOp: 1500, AllocsPerOp: 90},
	})

	var out strings.Builder
	if code := runCompare(&out, oldPath, okPath, 0.10); code != 0 {
		t.Fatalf("ok compare exit = %d, want 0; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "OK: no ns/op or allocs/op regression") {
		t.Fatalf("missing OK line:\n%s", out.String())
	}

	out.Reset()
	if code := runCompare(&out, oldPath, badPath, 0.10); code != 1 {
		t.Fatalf("regressed compare exit = %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL") || !strings.Contains(out.String(), "E1") {
		t.Fatalf("missing FAIL diagnostics:\n%s", out.String())
	}

	out.Reset()
	if code := runCompare(&out, filepath.Join(dir, "missing.json"), okPath, 0.10); code != 2 {
		t.Fatalf("missing-file compare exit = %d, want 2", code)
	}
}

// A row present in only one file never fails the gate, but it is named:
// an experiment that vanished from the new run must not pass unnoticed.
func TestRunCompareReportsUnmatchedRows(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeSuite(t, dir, "old.json", []expBench{
		{ID: "E1", NsPerOp: 1000, AllocsPerOp: 10},
		{ID: "E2", NsPerOp: 1000, AllocsPerOp: 10},
	})
	newPath := writeSuite(t, dir, "new.json", []expBench{
		{ID: "E1", NsPerOp: 1000, AllocsPerOp: 10},
		{ID: "E3", NsPerOp: 1000, AllocsPerOp: 10},
	})
	var out strings.Builder
	if code := runCompare(&out, oldPath, newPath, 0.10); code != 0 {
		t.Fatalf("exit = %d, want 0; output:\n%s", code, out.String())
	}
	for _, want := range []string{
		"E2     only in " + oldPath + " (not gated)\n",
		"E3     only in " + newPath + " (not gated)\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "E1     only in") {
		t.Errorf("a row in both files reported as unmatched:\n%s", out.String())
	}
}
