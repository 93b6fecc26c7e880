// Command tussle-bench regenerates the full evaluation suite (E1–E30,
// indexed in DESIGN.md) and prints each experiment's table and finding.
//
// Usage:
//
//	tussle-bench [-seed N] [-only E3,E11] [-quiet] [-markdown] [-parallel N] [-json FILE] [-iters N] [-metrics FILE]
//	tussle-bench [-scale-json FILE] [-wire-json FILE] [-policy-json FILE] [-iters N] [-seed N]
//	tussle-bench -compare [-tolerance 0.10] old.json new.json
//
// Every run is deterministic for a given seed: the experiments are pure
// functions of the seed, so -parallel changes only wall-clock time, never
// a single output byte.
//
// -json FILE additionally micro-benchmarks each experiment (ns/op,
// allocs/op, bytes/op) plus sequential-vs-parallel suite wall time, and
// writes the measurements as JSON — the repo's recorded perf baseline
// (BENCH_suite.json by convention; see the Makefile bench-json target).
// -scale-json, -wire-json and -policy-json write the other baselines
// instead of running the suite; sweep.go holds all four sweeps.
//
// -compare diffs two such JSON files and exits non-zero when any
// experiment's ns/op regressed beyond -tolerance (default 10%) or its
// allocs/op grew at all. CI runs it against the committed baseline; see
// the Makefile bench-smoke target.
//
// -metrics FILE runs the suite with the internal/obs observability layer
// enabled and writes the metric snapshots (suite-wide aggregate plus a
// per-experiment breakdown) as JSON. Metrics record only simulated
// quantities, so the file is byte-identical across runs at the same seed.
//
// Each mode reads only some of the flags: compare mode -compare and
// -tolerance; sweep mode (any of -scale-json, -wire-json, -policy-json)
// those three, -iters and -seed; suite mode the rest. A flag the selected
// mode ignores exits 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, selects the mode, and runs it; it returns the process
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tussle-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed        = fs.Uint64("seed", 42, "simulation seed (runs are deterministic per seed)")
		only        = fs.String("only", "", "comma-separated experiment IDs to run (e.g. E3,E11); empty = all")
		quiet       = fs.Bool("quiet", false, "print findings only, not the full tables")
		markdown    = fs.Bool("markdown", false, "emit EXPERIMENTS.md-style markdown")
		parallel    = fs.Int("parallel", 0, "worker goroutines for the suite (0 = GOMAXPROCS, 1 = sequential)")
		_           = fs.String("json", "", "also micro-benchmark every experiment and write JSON to this file (e.g. BENCH_suite.json)")
		scaleJSON   = fs.String("scale-json", "", "measure the sharded-core scale sweep (1k/10k/100k nodes) and write JSON to this file (e.g. BENCH_scale.json)")
		wireJSON    = fs.String("wire-json", "", "measure the live UDP wire engine (decision kernel + loopback round trip) and write JSON to this file (e.g. BENCH_wire.json)")
		policyJSON  = fs.String("policy-json", "", "measure the metered policy VM (scalar / membership / nested shapes, per-eval) and write JSON to this file (e.g. BENCH_policy.json)")
		iters       = fs.Int("iters", 3, "measured runs per row for -json and the sweep flags (the minimum is recorded)")
		compare     = fs.Bool("compare", false, "compare two bench JSON files (old new); exit non-zero on ns/op or allocs/op regression")
		tolerance   = fs.Float64("tolerance", 0.10, "allowed fractional ns/op growth per experiment for -compare")
		metricsPath = fs.String("metrics", "", "run the suite instrumented and write metric snapshots (suite aggregate + per-experiment) as JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Each mode reads only some of the flags. One set explicitly that the
	// selected mode would ignore is an error: -scale-json a -json b must
	// not write a and drop b.
	sweepMode := *scaleJSON != "" || *wireJSON != "" || *policyJSON != ""
	mode, reads := "in suite mode", "seed only quiet markdown parallel json iters metrics"
	switch {
	case *compare:
		mode, reads = "with -compare", "compare tolerance"
	case sweepMode:
		mode, reads = "with -scale-json, -wire-json or -policy-json", "scale-json wire-json policy-json iters seed"
	}
	ignored := ""
	fs.Visit(func(f *flag.Flag) {
		if ignored == "" && !slices.Contains(strings.Fields(reads), f.Name) {
			ignored = f.Name
		}
	})
	if ignored != "" {
		fmt.Fprintf(stderr, "tussle-bench: -%s has no effect %s\n", ignored, mode)
		return 2
	}

	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "tussle-bench: -compare needs exactly two files: old.json new.json")
			return 2
		}
		return runCompare(stdout, stderr, fs.Arg(0), fs.Arg(1), *tolerance)
	}
	if !sweepMode {
		if code := runSuite(stdout, stderr, *seed, *only, *quiet, *markdown, *parallel, *metricsPath); code != 0 {
			return code
		}
	}
	// Each sweep reads its file name from its own flag. In suite mode only
	// -json can name one; in sweep mode every file named is written, in
	// table order.
	for _, sw := range sweeps(*seed, *parallel) {
		if path := fs.Lookup(sw.flag).Value.String(); path != "" {
			if err := runSweep(sw, path, max(*iters, 1), stderr); err != nil {
				fmt.Fprintf(stderr, "tussle-bench: %v\n", err)
				return 1
			}
		}
	}
	return 0
}

// runSuite runs the experiments, prints the selected ones, and writes the
// -metrics file when one is named.
func runSuite(stdout, stderr io.Writer, seed uint64, only string, quiet, markdown bool, parallel int, metricsPath string) int {
	want := map[string]bool{}
	if only != "" {
		for _, id := range strings.Split(only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	var suiteReg *obs.Registry
	if metricsPath != "" {
		suiteReg = obs.NewRegistry()
	}
	results := experiments.RunAll(seed, experiments.Options{Parallelism: parallel, Obs: suiteReg})
	if markdown {
		fmt.Fprintf(stdout, "# EXPERIMENTS — paper claims vs measured results\n\n")
		fmt.Fprintf(stdout, "Generated by `go run ./cmd/tussle-bench -markdown` with seed %d.\n", seed)
		fmt.Fprintf(stdout, "The source paper is a position paper with no tables or figures; each\n")
		fmt.Fprintf(stdout, "experiment below operationalizes one of its claims (section anchors\n")
		fmt.Fprintf(stdout, "given per experiment; the full index is in DESIGN.md §3). Every value\n")
		fmt.Fprintf(stdout, "is deterministic for the seed, and every directional claim in a\n")
		fmt.Fprintf(stdout, "\"Measured\" line is enforced by a test in internal/experiments.\n\n")
	}
	printed := 0
	for _, r := range results {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		printed++
		switch {
		case markdown:
			r.RenderMarkdown(stdout)
		case quiet:
			fmt.Fprintf(stdout, "%s %s\n  finding: %s\n", r.ID, r.Title, r.Finding)
		default:
			r.Render(stdout)
		}
	}
	if printed == 0 {
		fmt.Fprintf(stderr, "tussle-bench: no experiments matched %q\n", only)
		return 1
	}
	if markdown && len(want) == 0 {
		// A static trailing section (no measured values, so regenerating
		// this file stays a deterministic no-op): the live-wire multipath
		// runs live in CI smoke jobs, not in the seeded suite, because
		// wall-clock loopback timings are not reproducible by seed.
		fmt.Fprintf(stdout, "## W1 — multipath striping on the live wire (CI smoke, wall clock)\n\n")
		fmt.Fprintf(stdout, "**Paper claim.** §IV-B/§V-A4: routing around the tussle has to survive\n")
		fmt.Fprintf(stdout, "contact with a real substrate — the same demote/probe/promote machine\n")
		fmt.Fprintf(stdout, "that scores 1.0 availability in E29 runs over real UDP sockets on the\n")
		fmt.Fprintf(stdout, "wall clock, and the differential harness proves it is the *same*\n")
		fmt.Fprintf(stdout, "machine (decision logs byte-identical to the simulator's, seeds 42+7,\n")
		fmt.Fprintf(stdout, "pinned in internal/wire/testdata/golden_mp_decisions.txt).\n\n")
		fmt.Fprintf(stdout, "Availability on the wire is asserted, not scored: the\n")
		fmt.Fprintf(stdout, "`wire-multipath-smoke` CI job stripes 10 MiB through the real tussled\n")
		fmt.Fprintf(stdout, "binary on loopback and fails on any broken promise below.\n\n")
		fmt.Fprintf(stdout, "| run | strategy | impairment | asserted |\n")
		fmt.Fprintf(stdout, "|---|---|---|---|\n")
		fmt.Fprintf(stdout, "| 1 | shortest-k | path 2 dropped at start, lifted mid-run (SIGUSR1) | transfer completes; reassembled sha256 equals the payload's; ≥1 demotion |\n")
		fmt.Fprintf(stdout, "| 2 | loss-adaptive | none | transfer completes byte-exact; all three paths carry segments |\n\n")
		fmt.Fprintf(stdout, "**Measured.** per-op cost rides in BENCH_wire.json as the\n")
		fmt.Fprintf(stdout, "`wire-mp-roundtrip` row (one striped segment out, its cumulative ACK\n")
		fmt.Fprintf(stdout, "back), gated by `tussle-bench -compare` with allocs/op at zero\n")
		fmt.Fprintf(stdout, "tolerance — the striping fast path stays off the heap per packet.\n")
	}

	if metricsPath != "" {
		if err := writeMetrics(metricsPath, seed, suiteReg); err != nil {
			fmt.Fprintf(stderr, "tussle-bench: write %s: %v\n", metricsPath, err)
			return 1
		}
		fmt.Fprintf(stderr, "tussle-bench: wrote %s\n", metricsPath)
	}
	return 0
}
