package invariant

import (
	"fmt"

	"repro/internal/scale"
	"repro/internal/sim"
)

// This file attaches the invariant checker across the shards of the
// sharded simulation core. The checker is a single obs.Sink; the
// sharded lockstep driver executes events in one global (time, key)
// order, so attaching the same sink to every shard's network yields
// exactly the globally time-ordered event stream the checker's clock,
// conservation, and queue-bound logic expect. Probe packets sent
// through Sharded.Send keep full hop-by-hop traces (unlike the pooled
// bulk traffic), giving CheckTrace complete cross-shard paths to audit.

// ShardedInvariants is the subset of the catalogue checkable on a
// sharded scale run: the event-stream invariants plus per-packet trace
// validity. The remaining invariants need machinery the scale workload
// deliberately does not carry (routing databases for loop-free/reach,
// a transport session, chaos connectivity epochs for cut-delivery).
func ShardedInvariants() map[string]bool {
	return map[string]bool{
		Conservation: true,
		QueueBound:   true,
		Clock:        true,
		TraceValid:   true,
	}
}

// SweepSharded runs cfg.Trials randomized sharded scale scenarios —
// topology size, traffic volume, shard count, and chaos all derived
// from the trial seed — with the checker attached across every shard.
// shards > 0 pins the shard count; shards <= 0 rotates through 2/4/8.
// cfg.Invariants is intersected with ShardedInvariants; shrinking does
// not apply (scenarios are fully described by their seed).
func SweepSharded(cfg Config, shards int) *Result {
	if cfg.Trials <= 0 {
		cfg.Trials = 1
	}
	supported := ShardedInvariants()
	enabled := make(map[string]bool)
	for name := range supported {
		if cfg.Invariants == nil || cfg.Invariants[name] {
			enabled[name] = true
		}
	}
	res := &Result{Trials: cfg.Trials}
	for i := 0; i < cfg.Trials; i++ {
		seed := trialSeed(cfg.Seed, i)
		k := shards
		if k <= 0 {
			k = []int{2, 4, 8}[i%3]
		}
		violations := runSharded(seed, k, enabled)
		if len(violations) > 0 {
			res.Failures = append(res.Failures, &Failure{Trial: i, Seed: seed, Violations: violations})
		}
	}
	return res
}

func runSharded(seed uint64, shards int, enabled map[string]bool) []Violation {
	rng := sim.NewRNG(seed)
	nodes := 100 + rng.Intn(300)
	sm := scale.Prepare(scale.Config{
		Nodes:   nodes,
		M:       1 + rng.Intn(3),
		Packets: nodes * (4 + rng.Intn(8)),
		Seed:    seed,
		Shards:  shards,
		Chaos:   rng.Bool(0.5),
	})
	checker := NewChecker(sm.S.Shards[0].Net, enabled)
	sm.AttachSink(checker)
	traced := sm.SendProbes(12)
	sm.Run()
	if enabled[TraceValid] {
		for _, tr := range traced {
			checker.CheckTrace(tr, 64)
		}
	}
	checker.Finish()
	vs := checker.Violations()
	out := make([]Violation, len(vs))
	for i, v := range vs {
		out[i] = v
		out[i].Detail = fmt.Sprintf("shards=%d nodes=%d: %s", shards, nodes, v.Detail)
	}
	return out
}
