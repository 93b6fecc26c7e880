package invariant

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/scale"
	"repro/internal/sim"
)

// This file checks invariants across the shards of the sharded
// simulation core with one Checker per shard, each the sink of its
// shard's network. A shard's scheduler runs its events in time order, so
// the clock invariant holds per scheduler, and no two goroutines of the
// parallel driver share a checker. Packets cross shards, so one shard's
// sends and terminal events need not balance: conservation is judged
// after the drain, over the counts summed across shards. Probe packets
// sent through Sharded.Send keep full hop-by-hop traces (unlike the
// pooled bulk traffic), giving CheckTrace complete cross-shard paths to
// audit.

// ShardedInvariants is the subset of the catalogue checkable on a
// sharded scale run: the event-stream invariants, with the clock checked
// per shard scheduler and conservation over all shards, plus per-packet
// trace validity. The remaining invariants need machinery the scale
// workload deliberately does not carry (routing databases for
// loop-free/reach, a transport session, chaos connectivity epochs for
// cut-delivery).
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
// from the trial seed — on the parallel driver, with a checker on every
// shard. shards > 0 pins the shard count; shards <= 0 rotates through
// 2/4/8. cfg.Invariants is intersected with ShardedInvariants;
// shrinking does not apply (scenarios are fully described by their
// seed).
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
		Nodes:    nodes,
		M:        1 + rng.Intn(3),
		Packets:  nodes * (4 + rng.Intn(8)),
		Seed:     seed,
		Shards:   shards,
		Parallel: true,
		Chaos:    rng.Bool(0.5),
	})
	checkers := shardCheckers(sm, enabled)
	traced := sm.SendProbes(12)
	sm.Run()
	checker := merge(checkers)
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

// shardCheckers attaches a Checker to every shard of sm, each over its
// shard's network, and returns them by shard.
func shardCheckers(sm *scale.Sim, enabled map[string]bool) []*Checker {
	cs := make([]*Checker, len(sm.S.Shards))
	for i, sh := range sm.S.Shards {
		cs[i] = NewChecker(sh.Net, enabled)
	}
	sm.AttachSinks(func(shard int32) obs.Sink { return cs[shard] })
	return cs
}

// merge returns a checker over the first shard's network holding the
// event counts summed across cs and the first maxViolations of their
// violations in shard order: the one Finish and CheckTrace run on once
// the drain is over.
func merge(cs []*Checker) *Checker {
	m := NewChecker(cs[0].Net, cs[0].enabled)
	for _, c := range cs {
		m.sends += c.sends
		m.dups += c.dups
		m.delivers += c.delivers
		m.drops += c.drops
		m.violations = append(m.violations, c.violations...)
	}
	m.violations = m.violations[:min(len(m.violations), maxViolations)]
	return m
}
