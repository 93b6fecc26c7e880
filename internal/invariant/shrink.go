package invariant

import (
	"repro/internal/chaos"
)

// ddmin is delta-debugging minimization over a list: it returns a
// subsequence of items for which fails still returns true, removing
// chunks of halving size until no single-element removal helps. fails
// must be deterministic; if fails(items) is false the input is returned
// unchanged. The result is always a subsequence of (and never longer
// than) the input.
func ddmin[T any](items []T, fails func([]T) bool) []T {
	if len(items) == 0 || !fails(items) {
		return items
	}
	cur := items
	for chunk := (len(cur) + 1) / 2; chunk >= 1; {
		shrunk := false
		for start := 0; start < len(cur); {
			end := start + chunk
			if end > len(cur) {
				end = len(cur)
			}
			cand := make([]T, 0, len(cur)-(end-start))
			cand = append(cand, cur[:start]...)
			cand = append(cand, cur[end:]...)
			if fails(cand) {
				cur = cand
				shrunk = true
				// stay at the same start: the next chunk slid into place
			} else {
				start = end
			}
		}
		if chunk == 1 {
			if !shrunk {
				break // single-element removals exhausted: 1-minimal
			}
			// re-run at granularity 1 until a full pass removes nothing
		} else {
			chunk /= 2
		}
	}
	return cur
}

// shrinkEvents minimizes a chaos plan's event list while fails keeps
// returning true for the candidate plan. The result reuses the plan's
// name and seed with a subsequence of its events; if fails rejects the
// full plan, the input is returned as-is.
func shrinkEvents(p *chaos.Plan, fails func(*chaos.Plan) bool) *chaos.Plan {
	withEvents := func(evs []chaos.Event) *chaos.Plan {
		c := *p
		c.Events = evs
		return &c
	}
	evs := ddmin(p.Events, func(cand []chaos.Event) bool {
		return fails(withEvents(cand))
	})
	return withEvents(evs)
}

// shrinkClone builds a scenario candidate sharing sc's topology and
// seeds but with the given plan events and traffic matrix.
func (sc *Scenario) shrinkClone(events []chaos.Event, traffic []Traffic) *Scenario {
	c := *sc
	p := *sc.Plan
	p.Events = events
	c.Plan = &p
	c.Traffic = traffic
	return &c
}

// ShrinkScenario minimizes a failing scenario to a reproducer for the
// named invariant: first the fault-plan events, then the traffic matrix,
// each by delta debugging, re-running the (deterministic) scenario for
// every candidate. maxRuns bounds total candidate executions; when the
// budget runs out remaining candidates are treated as non-failing, so
// the result is still a valid (just less minimal) reproducer. The hooks
// are re-applied on every run, which is how canary tests shrink their
// deliberately-sabotaged trials.
func ShrinkScenario(sc *Scenario, enabled map[string]bool, invariant string, hk *hooks, maxRuns int) *Repro {
	if maxRuns <= 0 {
		maxRuns = 400
	}
	runs := 0
	var lastViolations []Violation
	reproduces := func(cand *Scenario) bool {
		if runs >= maxRuns {
			return false
		}
		runs++
		vs := runScenario(cand, enabled, hk).violations
		for _, v := range vs {
			if v.Invariant == invariant {
				lastViolations = vs
				return true
			}
		}
		return false
	}

	events := ddmin(sc.Plan.Events, func(evs []chaos.Event) bool {
		return reproduces(sc.shrinkClone(evs, sc.Traffic))
	})
	traffic := ddmin(sc.Traffic, func(trs []Traffic) bool {
		return reproduces(sc.shrinkClone(events, trs))
	})
	minimal := sc.shrinkClone(events, traffic)

	// Final authoritative run: capture the violation detail from the
	// minimized scenario itself (the ddmin bookkeeping may have last run
	// a different candidate).
	detail := ""
	final := runScenario(minimal, enabled, hk).violations
	if len(final) == 0 {
		final = lastViolations
	}
	for _, v := range final {
		if v.Invariant == invariant {
			detail = v.Detail
			break
		}
	}
	return &Repro{Invariant: invariant, Detail: detail, Scenario: minimal}
}
