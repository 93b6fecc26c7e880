// Command bench is the repository benchmark: four workloads that run the
// reproduction from the live UDP wire to the paper's experiment suite,
// each checked against correctness oracles while it is timed.
//
// Usage (from the repository root; bench/run.sh builds and runs it):
//
//	bench -workload NAME -seed N [-seconds S] [-trace 0|1] [-spans FILE]
//	bench -calibrate [-runs N] [-seconds S]
//	bench -cold-suite -seed N
//
// A run prints each metric as "name value unit", then "ops N failed M",
// and last a JSON object with the keys correct, attempted, failed and
// metrics. With -trace 0 the metrics are the end-to-end metrics that
// BENCHMARK.json names; with -trace 1 they are its per-layer metrics,
// spans are kept in memory and written as JSON lines to -spans, and a
// self-time table is printed. A failed oracle makes the exit status 1.
//
// -calibrate runs every workload -runs times in fresh processes,
// alternating the workload order, and prints each end-to-end metric's
// median, quartiles and spread against its bound (see CALIBRATION.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"
)

// sizes scales the workloads; the smoke test runs them at about 1%.
type sizes struct {
	stripeBytes  int
	scaleNodes   int
	scalePackets int
}

var fullSize = sizes{stripeBytes: 32 << 20, scaleNodes: 100_000, scalePackets: 1_000_000}

// env is one workload run's inputs and its report.
type env struct {
	seed   uint64
	budget time.Duration
	size   sizes
	root   string  // repository root, for the suite goldens
	exe    string  // this binary, re-run for cold-process probes; "" to skip them
	tr     *tracer // nil unless tracing
	rep    *report
}

// report collects a run's metrics, notes and oracle failures.
type report struct {
	e2e       map[string]float64
	layers    map[string]float64
	notes     []string
	errs      []string
	attempted int64
	failed    int64
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// set records an end-to-end metric.
func (r *report) set(name string, v float64) { r.e2e[name] = v }

// layer records a per-layer metric.
func (r *report) layer(name string, v float64) { r.layers[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a correctness-oracle failure.
func (r *report) fail(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

var workloads = []struct {
	name string
	run  func(*env) error
}{
	{"wire-forward", runForward},
	{"wire-stripe", runStripe},
	{"sim-scale", runScale},
	{"suite", runSuite},
}

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// metric catalogue is defined there once.
type benchSpec struct {
	RunSeconds int                     `json:"run_seconds"`
	Workloads  []struct{ Name string } `json:"workloads"`
	EndToEnd   []metricSpec            `json:"end_to_end"`
	PerLayer   []metricSpec            `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("spec %s: %w", path, err)
	}
	return &s, nil
}

func main() {
	workload := flag.String("workload", "", "workload to run: wire-forward, wire-stripe, sim-scale or suite")
	seed := flag.Uint64("seed", 42, "input seed")
	seconds := flag.Int("seconds", 0, "measured seconds per run (default: run_seconds of the spec)")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	spans := flag.String("spans", "", "span JSONL output for -trace 1 (default .bench_build/spans-WORKLOAD-seedN.jsonl)")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark spec naming the metrics")
	cal := flag.Bool("calibrate", false, "run every workload -runs times in fresh processes and report spreads")
	runs := flag.Int("runs", 10, "runs per workload for -calibrate")
	coldSuite := flag.Bool("cold-suite", false, "time this process's first suite run and print the seconds and peak RSS (the suite's set-up probe)")
	flag.Parse()

	if *coldSuite {
		d, _ := suiteColdRun(*seed)
		rss, err := peakRSSMB()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		fmt.Println(d.Seconds(), rss)
		return
	}

	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	if *cal {
		os.Exit(calibrate(spec, *specPath, *runs, *seconds))
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		os.Exit(2)
	}
	path := *spans
	if path == "" {
		path = fmt.Sprintf(".bench_build/spans-%s-seed%d.jsonl", *workload, *seed)
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	e := &env{seed: *seed, budget: time.Duration(*seconds) * time.Second, size: fullSize, root: ".", exe: exe}
	code, err := run(os.Stdout, spec, *workload, e, *trace == 1, path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	os.Exit(code)
}

// run executes one workload and prints its result. It returns the exit
// status: 0 when every oracle held, 1 when one failed (the result is
// still printed), 2 when the run could not complete (nothing printed).
func run(w io.Writer, spec *benchSpec, name string, e *env, traced bool, spansPath string) (int, error) {
	var fn func(*env) error
	for _, wl := range workloads {
		if wl.name == name {
			fn = wl.run
		}
	}
	if fn == nil {
		return 2, fmt.Errorf("unknown workload %q", name)
	}
	e.rep = newReport()
	if traced {
		e.tr = newTracer(1 << 19)
	}
	if err := fn(e); err != nil {
		return 2, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return 2, err
	}
	rep := e.rep
	if _, ok := rep.e2e["peak_rss_mb"]; !ok {
		rep.set("peak_rss_mb", rss)
	}

	metrics, src := spec.EndToEnd, rep.e2e
	if traced {
		metrics, src = spec.PerLayer, rep.layers
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, m := range metrics {
		v, ok := src[m.Name]
		switch {
		case !ok && !traced:
			return 2, fmt.Errorf("%s produced no %s", name, m.Name)
		case !ok:
			v = 0 // a layer this workload never enters
		case math.IsNaN(v):
			return 2, fmt.Errorf("%s: %s is not a number", name, m.Name)
		case math.IsInf(v, 1):
			v = math.MaxFloat64 // lost operations: no finite latency
		}
		out[m.Name] = value{v, m.Unit}
		fmt.Fprintf(w, "%s %.6g %s\n", m.Name, v, m.Unit)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(w, "#", n)
	}
	if traced {
		spans := e.tr.recorded()
		fmt.Fprintf(w, "# spans: %d kept, %d beyond capacity, written to %s\n", len(spans), e.tr.dropped.Load(), spansPath)
		fmt.Fprintf(w, "# %-22s %10s %12s %12s\n", "span", "count", "mean_ns", "self_ns")
		for _, s := range selfTimes(spans) {
			fmt.Fprintf(w, "# %-22s %10d %12.0f %12.0f\n", s.Name, s.Count, s.MeanNs, s.SelfNs)
		}
		if err := e.tr.writeJSONL(spansPath); err != nil {
			return 2, err
		}
	}
	for _, msg := range rep.errs {
		fmt.Fprintln(w, "# FAIL", msg)
	}
	fmt.Fprintf(w, "ops %d failed %d\n", rep.attempted, rep.failed)
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(rep.errs) == 0, max(1, rep.attempted), rep.failed, out})
	if err != nil {
		return 2, err
	}
	fmt.Fprintln(w, string(b))
	if len(rep.errs) > 0 {
		return 1, fmt.Errorf("%s: %d oracle failures: %s", name, len(rep.errs), strings.Join(rep.errs, "; "))
	}
	return 0, nil
}

// oneLine folds a multi-line counter dump into one line.
func oneLine(s string) string { return strings.Join(strings.Fields(s), " ") }
