package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// This file implements `tussle-bench -compare old.json new.json`: the
// regression gate over two BENCH_suite.json files. Any experiment whose
// ns/op grew by more than the tolerance — or whose allocs/op grew at
// all — fails the comparison, so CI can hold the committed baseline
// against a freshly measured run. Alloc counts are deterministic per
// run (unlike timings), which is why their tolerance is zero.

// regression is one experiment's old-vs-new delta.
type regression struct {
	ID       string
	OldNs    int64
	NewNs    int64
	Ratio    float64 // new/old
	OldAlloc uint64
	NewAlloc uint64
	// AllocRegressed marks a growth in allocs/op (gated at zero
	// tolerance); the ratio gate covers ns/op only.
	AllocRegressed bool
}

func loadSuite(path string) (*suiteBench, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sb suiteBench
	if err := json.Unmarshal(buf, &sb); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(sb.Experiments) == 0 {
		return nil, fmt.Errorf("%s: no experiments recorded", path)
	}
	return &sb, nil
}

// compareSuites diffs two benchmark files and returns the per-experiment
// deltas plus whether any experiment regressed: ns/op grown beyond
// tolerance (e.g. 0.10 = fail when ns/op grows more than 10%), or
// allocs/op grown at all (alloc counts are deterministic, so any growth
// is a real regression, not noise). Experiments present in only one file
// never fail the gate (the suite may have grown or shrunk between
// revisions); runCompare lists them (see onlyIn).
func compareSuites(oldSB, newSB *suiteBench, tolerance float64) (deltas []regression, regressed []regression) {
	oldByID := make(map[string]expBench, len(oldSB.Experiments))
	for _, e := range oldSB.Experiments {
		oldByID[e.ID] = e
	}
	for _, e := range newSB.Experiments {
		o, ok := oldByID[e.ID]
		if !ok || o.NsPerOp <= 0 {
			continue
		}
		d := regression{
			ID: e.ID, OldNs: o.NsPerOp, NewNs: e.NsPerOp,
			Ratio:    float64(e.NsPerOp) / float64(o.NsPerOp),
			OldAlloc: o.AllocsPerOp, NewAlloc: e.AllocsPerOp,
			AllocRegressed: e.AllocsPerOp > o.AllocsPerOp,
		}
		deltas = append(deltas, d)
		if d.Ratio > 1+tolerance || d.AllocRegressed {
			regressed = append(regressed, d)
		}
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Ratio > deltas[j].Ratio })
	sort.Slice(regressed, func(i, j int) bool { return regressed[i].Ratio > regressed[j].Ratio })
	return deltas, regressed
}

// onlyIn returns the IDs of the experiments in a that b lacks, in a's
// order.
func onlyIn(a, b *suiteBench) []string {
	inB := make(map[string]bool, len(b.Experiments))
	for _, e := range b.Experiments {
		inB[e.ID] = true
	}
	var ids []string
	for _, e := range a.Experiments {
		if !inB[e.ID] {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// suiteAllocs totals allocs/op across all experiments in a suite.
func suiteAllocs(sb *suiteBench) uint64 {
	var total uint64
	for _, e := range sb.Experiments {
		total += e.AllocsPerOp
	}
	return total
}

// runCompare is the -compare entry point; returns the process exit code.
func runCompare(w io.Writer, oldPath, newPath string, tolerance float64) int {
	oldSB, err := loadSuite(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tussle-bench: %v\n", err)
		return 2
	}
	newSB, err := loadSuite(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tussle-bench: %v\n", err)
		return 2
	}
	deltas, regressed := compareSuites(oldSB, newSB, tolerance)
	fmt.Fprintf(w, "bench compare: %s -> %s (tolerance %.0f%% ns/op, 0%% allocs/op)\n", oldPath, newPath, tolerance*100)
	fmt.Fprintf(w, "%-6s %14s %14s %8s %12s %12s\n", "exp", "old ns/op", "new ns/op", "ratio", "old allocs", "new allocs")
	for _, d := range deltas {
		fmt.Fprintf(w, "%-6s %14d %14d %7.2fx %12d %12d\n", d.ID, d.OldNs, d.NewNs, d.Ratio, d.OldAlloc, d.NewAlloc)
	}
	for _, id := range onlyIn(oldSB, newSB) {
		fmt.Fprintf(w, "%-6s only in %s (not gated)\n", id, oldPath)
	}
	for _, id := range onlyIn(newSB, oldSB) {
		fmt.Fprintf(w, "%-6s only in %s (not gated)\n", id, newPath)
	}
	fmt.Fprintf(w, "suite allocs/op: %d -> %d\n", suiteAllocs(oldSB), suiteAllocs(newSB))
	if len(regressed) > 0 {
		fmt.Fprintf(w, "FAIL: %d experiment(s) regressed:", len(regressed))
		for _, d := range regressed {
			switch {
			case d.AllocRegressed && d.Ratio > 1+tolerance:
				fmt.Fprintf(w, " %s(%.2fx, allocs %d->%d)", d.ID, d.Ratio, d.OldAlloc, d.NewAlloc)
			case d.AllocRegressed:
				fmt.Fprintf(w, " %s(allocs %d->%d)", d.ID, d.OldAlloc, d.NewAlloc)
			default:
				fmt.Fprintf(w, " %s(%.2fx)", d.ID, d.Ratio)
			}
		}
		fmt.Fprintln(w)
		return 1
	}
	fmt.Fprintln(w, "OK: no ns/op or allocs/op regression beyond tolerance")
	return 0
}
