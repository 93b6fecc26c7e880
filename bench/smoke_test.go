package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smokeSize runs the workloads at about 1% of their measured size.
var smokeSize = sizes{stripeBytes: 320 << 10, scaleNodes: 1000, scalePackets: 10000}

// ownedLayers are, per workload, per-layer metrics its traced run must
// report as positive: a renamed metric or a dead probe shows up here.
var ownedLayers = map[string][]string{
	"wire-forward": {"packet.filter_ns", "packet.decode_ns", "middlebox.fw_ns", "packet.ttl_ns", "policy.srcroute_ns",
		"route_ns", "wire.process_ns", "wire.residual_ns", "wire.fastpath_share", "wire.drops.filtered",
		"wire.drops.blocked", "wire.drops.ttl", "gen.late_max_us"},
	"wire-stripe": {"stripe.allocs_per_seg", "stripe.bytes_per_seg", "stripe.useful_ratio", "stripe.path_balance", "multipath.recv_ns"},
	"sim-scale": {"topology.gen_s", "scale.tables_s", "sim.events", "sim.hops", "sim.ns_per_event", "sim.events_per_hop",
		"netsim.route_calls"},
	"suite": {"suite.E1_ms", "suite.E30_ms", "suite.critical_ms", "routing.linkstate.spf_runs"},
}

// everyLayer are per-layer metrics every workload reports as positive: its
// raw timings, its baseline and its CPU cost.
var everyLayer = []string{"rate_per_s", "latency_ms", "baseline_us", "cpu_us_per_unit"}

// TestSmokeEveryWorkload runs every workload small, untraced and traced,
// through the same path the command takes, and checks the result line.
func TestSmokeEveryWorkload(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			spans := filepath.Join(t.TempDir(), "spans.jsonl")
			e := &env{seed: 42, budget: 400 * time.Millisecond, size: smokeSize, root: ".."}
			code, err := run(&out, spec, wl.name, e, traced, spans)
			if code != 0 || err != nil {
				t.Fatalf("%s traced=%t: exit %d: %v\n%s", wl.name, traced, code, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]struct{ Value float64 }
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", wl.name, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d", wl.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, spec names %d", wl.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.Name]
				if !ok || !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v (present %t), want > 0", wl.name, m.Name, v.Value, ok)
				}
			}
			if !traced {
				continue
			}
			for _, name := range append(ownedLayers[wl.name], everyLayer...) {
				if v := res.Metrics[name].Value; v <= 0 {
					t.Errorf("%s: per-layer %s = %g, want > 0", wl.name, name, v)
				}
			}
			if info, err := os.Stat(spans); err != nil || info.Size() == 0 {
				t.Errorf("%s: no spans written: %v", wl.name, err)
			}
		}
	}
	t.Logf("all workloads, untraced and traced, in %v", time.Since(start).Round(time.Millisecond))
}

// TestSpecContract checks BENCHMARK.json against the limits the
// benchmark is defined by, and against the workloads registered here.
func TestSpecContract(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("spec names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: spec %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	seen := map[string]bool{}
	var setup float64
	maxBound := 0.0
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s named twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setup == 0 || setup < maxBound {
		t.Errorf("setup_s bound %g must exist and be the largest (%g)", setup, maxBound)
	}
	if len(spec.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128", len(spec.PerLayer))
	}
}
