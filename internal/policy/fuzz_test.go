package policy

import (
	"errors"
	"testing"
)

// FuzzCompileEval is the differential fuzz target the policy-vm CI job
// runs: arbitrary policy text is parsed, compiled, and executed on both
// engines under identical environments, and the verdicts and error
// strings must agree; the VM must additionally respect an arbitrary
// budget on every input (terminating with ErrBudgetExceeded, never
// hanging or panicking). Seeds live in testdata/fuzz/FuzzCompileEval.
func FuzzCompileEval(f *testing.F) {
	seeds := []string{
		`port == 80 || port == 443 && role != "guest"`,
		`port in [80, 443, 8080]`,
		`!(a && b) || c in [1, "x", [2]]`,
		`false && missing == 1`,
		`x < "y"`,
		`[a, 2] == [1, 2]`,
		`missing`,
		`1 && true`,
		`name in ["alice", "bob"] && tos >= 4`,
		`((a || b) && (c || d)) == e`,
	}
	for _, s := range seeds {
		f.Add(s, uint8(3))
	}
	// envFor deterministically varies attribute coverage and types from
	// one fuzz byte, so the same input text explores present/missing and
	// well/ill-typed attribute bindings.
	envFor := func(sel uint8) Env {
		vals := []Value{
			Num(80), Bool(true), Str("alice"), List(Num(1), Str("a")), Num(-1.5),
		}
		env := Env{}
		names := []string{"a", "b", "c", "d", "e", "port", "role", "tos", "name", "x", "missing"}
		for i, n := range names {
			if (sel>>(uint(i)%8))&1 == 1 {
				env[n] = vals[(i+int(sel))%len(vals)]
			}
		}
		return env
	}
	f.Fuzz(func(t *testing.T, src string, sel uint8) {
		e, err := ParseExpr(src)
		if err != nil {
			return // not a policy; parser robustness is covered elsewhere
		}
		prog, err := Compile(e)
		if err != nil {
			t.Fatalf("parsed expression failed to compile: %q: %v", src, err)
		}
		env := envFor(sel)

		// Differential: generous budget → identical values and errors.
		want, werr := Eval(e, env)
		b := NewBudget(1<<22, 1<<22)
		got, gerr := prog.Run(env, &b)
		switch {
		case (werr == nil) != (gerr == nil):
			t.Fatalf("%q: eval err=%v vm err=%v", src, werr, gerr)
		case werr != nil:
			if werr.Error() != gerr.Error() {
				t.Fatalf("%q: eval err=%q vm err=%q", src, werr, gerr)
			}
		case !want.Equal(got):
			t.Fatalf("%q: eval=%v vm=%v", src, want, got)
		}

		// Budget safety: under a tiny budget the VM either still agrees
		// or fails with ErrBudgetExceeded — no other outcome, and usage
		// never exceeds the limit by more than the breaching charge.
		tiny := NewBudget(int64(sel%16), int64(sel%8))
		tv, terr := prog.Run(env, &tiny)
		switch {
		case terr == nil:
			if werr != nil || !tv.Equal(want) {
				t.Fatalf("%q: tiny-budget run diverged: %v vs %v/%v", src, tv, want, werr)
			}
		case errors.Is(terr, ErrBudgetExceeded):
			if tiny.stepsUsed > tiny.Steps+1 {
				t.Fatalf("%q: steps overshoot: used %d limit %d", src, tiny.stepsUsed, tiny.Steps)
			}
		default:
			if werr == nil || terr.Error() != werr.Error() {
				t.Fatalf("%q: tiny-budget error %v, eval error %v", src, terr, werr)
			}
		}
	})
}
