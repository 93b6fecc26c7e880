package policy

import "errors"

// ErrBudgetExceeded is returned by Program.Run when a policy exhausts its
// per-invocation step or allocation budget. It is a static sentinel (use
// errors.Is) so the breach path never allocates: a hostile policy costs
// its budget and one error return, nothing more.
var ErrBudgetExceeded = errors.New("policy: budget exceeded")

// Budget bounds one policy invocation, in the Starlark safety tradition:
// untrusted code gets a step budget (instructions executed) and an
// allocation budget (units of guest-visible value materialization), and
// breaching either terminates evaluation immediately with
// ErrBudgetExceeded. Because TPL expressions have no loops, a program of
// K instructions can never execute more than K steps — the budget exists
// so a router can cap cost *below* K for adversarially large policies
// (million-term expressions compile fine; they just cannot run to
// completion on someone else's CPU).
//
// A Budget is single-use scratch: construct one per invocation (it is
// small and stack-allocatable), or call Reset between invocations.
// The zero Budget permits nothing; use NewBudget or DefaultBudget.
type Budget struct {
	// Steps is the number of VM instructions the invocation may execute.
	Steps int64
	// Allocs is the number of allocation units the invocation may
	// materialize. Every op that produces a fresh string or list value
	// charges units (one per value plus one per list element); scalar
	// ops (bool/number) are free. Constants count too — a policy that
	// pushes a million-entry constant list pays for it on every
	// invocation, which is exactly the point.
	Allocs int64

	stepsUsed  int64
	allocsUsed int64
}

// NewBudget returns a budget with the given step and allocation limits.
func NewBudget(steps, allocs int64) Budget {
	return Budget{Steps: steps, Allocs: allocs}
}

// DefaultBudget is a generous per-invocation budget for trusted-ish
// choice points (firewall documents, admission checks): far above what
// any reasonable policy needs, far below what a hostile one wants.
func DefaultBudget() Budget { return NewBudget(1<<16, 1<<16) }
