package main

import (
	"encoding/json"
	"os"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// expMetrics is one experiment's isolated metric snapshot.
type expMetrics struct {
	ID      string        `json:"id"`
	Metrics *obs.Snapshot `json:"metrics"`
}

// metricsOut is the -metrics file layout: the suite-wide aggregate (what
// RunAll merged across workers) plus a per-experiment breakdown, each
// experiment re-run against a fresh registry so its numbers attribute
// cleanly. Everything inside is deterministic for the seed — snapshot
// sections are name-sorted and record only simulated quantities — so two
// runs at the same seed write byte-identical files.
type metricsOut struct {
	Seed        uint64        `json:"seed"`
	Suite       *obs.Snapshot `json:"suite"`
	Experiments []expMetrics  `json:"experiments"`
}

// collectMetrics builds the per-experiment breakdown for instrumented
// experiments (uninstrumented ones record nothing and are omitted).
func collectMetrics(seed uint64, suite *obs.Registry) metricsOut {
	out := metricsOut{Seed: seed, Suite: suite.Snapshot()}
	for _, exp := range experiments.List() {
		reg := obs.NewRegistry()
		exp.RunWith(seed, reg)
		snap := reg.Snapshot()
		if len(snap.Counters) == 0 && len(snap.Gauges) == 0 && len(snap.Histograms) == 0 {
			continue
		}
		out.Experiments = append(out.Experiments, expMetrics{ID: exp.ID, Metrics: snap})
	}
	return out
}

// writeMetrics runs the breakdown and writes the JSON file.
func writeMetrics(path string, seed uint64, suite *obs.Registry) error {
	buf, err := json.MarshalIndent(collectMetrics(seed, suite), "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	return os.WriteFile(path, buf, 0o644)
}
