package policy

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// diffExpr runs one expression through the tree-walker and the compiled
// VM under the same env and requires identical values and identical
// error strings — the differential contract the fuzz target extends to
// arbitrary inputs.
func diffExpr(t *testing.T, src string, env Env) {
	t.Helper()
	e, err := ParseExpr(src)
	if err != nil {
		t.Fatalf("%s: parse: %v", src, err)
	}
	prog, err := Compile(e)
	if err != nil {
		t.Fatalf("%s: compile: %v", src, err)
	}
	want, werr := Eval(e, env)
	b := NewBudget(1<<20, 1<<20)
	got, gerr := prog.Run(env, &b)
	switch {
	case (werr == nil) != (gerr == nil):
		t.Fatalf("%s: eval err=%v vm err=%v", src, werr, gerr)
	case werr != nil:
		if werr.Error() != gerr.Error() {
			t.Fatalf("%s: eval err=%q vm err=%q", src, werr, gerr)
		}
	case !want.Equal(got):
		t.Fatalf("%s: eval=%v vm=%v", src, want, got)
	}
}

func TestVMDifferentialTable(t *testing.T) {
	env := Env{
		"port": Num(443), "tos": Num(4), "role": Str("business"),
		"direction": Str("inbound"), "a": Bool(true), "b": Bool(false),
		"name": Str("bob"), "x": Num(2), "lst": List(Num(1), Str("q")),
	}
	cases := []string{
		// Values and literals.
		`true`, `false`, `42`, `-1.5`, `"hi"`, `[1, 2, 3]`, `[]`,
		`[port, "s", [1]]`,
		// Attributes.
		`port`, `lst`, `missing`,
		// Comparisons.
		`1 < 2`, `2 <= 2`, `3 > 4`, `"a" < "b"`, `"x" >= "x"`,
		`port == 443`, `port != 443`, `x == -1.5`,
		`lst == [1, "q"]`, `lst != [1, "q", 3]`,
		// Membership (folded and dynamic lists).
		`port in [80, 443, 8080]`, `port in [80]`, `name in ["alice", "bob"]`,
		`x in [x, 3]`, `1 in lst`, `port in port`,
		// Logic and short-circuits.
		`a && b`, `a || b`, `!a`, `!(a && b)`,
		`false && missing == 1`, `true || missing == 1`,
		`true && missing == 1`, `false || missing == 1`,
		`port == 80 || port == 443 && role != "guest"`,
		`(a || b) && (tos >= 4 || port < 100)`,
		// Type errors (messages must match byte-for-byte).
		`1 && true`, `true && 1`, `1 || true`, `false || 1`,
		`"a" < 1`, `!5`, `1 in 2`, `[1] < [2]`, `port < role`,
		// Error ordering: left operand errors win.
		`missing == 1 && true`, `[missing, 1] == [1, 1]`,
	}
	for _, src := range cases {
		diffExpr(t, src, env)
	}
}

// TestVMDifferentialRandom cross-checks generated ASTs: random operator
// trees over a small attribute vocabulary with randomly typed envs, so
// type errors, unknown attributes, and deep nesting all get exercised.
func TestVMDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	attrs := []string{"a", "b", "port", "name", "z"}
	var gen func(depth int) Expr
	gen = func(depth int) Expr {
		if depth <= 0 || rng.Intn(4) == 0 {
			switch rng.Intn(4) {
			case 0:
				return &LitExpr{V: Num(float64(rng.Intn(5)))}
			case 1:
				return &LitExpr{V: Bool(rng.Intn(2) == 0)}
			case 2:
				return &LitExpr{V: Str(string(rune('a' + rng.Intn(3))))}
			default:
				return NewRefExpr(attrs[rng.Intn(len(attrs))])
			}
		}
		switch rng.Intn(8) {
		case 0:
			return &UnaryExpr{X: gen(depth - 1)}
		case 1:
			n := rng.Intn(3)
			l := &ListExpr{}
			for i := 0; i < n; i++ {
				l.Elems = append(l.Elems, gen(depth-1))
			}
			return l
		default:
			ops := []string{"==", "!=", "<", ">", "<=", ">=", "in", "&&", "||"}
			return &BinExpr{Op: ops[rng.Intn(len(ops))], L: gen(depth - 1), R: gen(depth - 1)}
		}
	}
	randVal := func() Value {
		switch rng.Intn(4) {
		case 0:
			return Num(float64(rng.Intn(5)))
		case 1:
			return Bool(rng.Intn(2) == 0)
		case 2:
			return Str(string(rune('a' + rng.Intn(3))))
		default:
			return List(Num(1), Str("a"))
		}
	}
	for trial := 0; trial < 5000; trial++ {
		e := gen(4)
		env := Env{}
		for _, a := range attrs {
			if rng.Intn(5) > 0 { // sometimes missing
				env[a] = randVal()
			}
		}
		prog, err := Compile(e)
		if err != nil {
			t.Fatalf("trial %d: compile %s: %v", trial, e, err)
		}
		want, werr := Eval(e, env)
		b := NewBudget(1<<20, 1<<20)
		got, gerr := prog.Run(env, &b)
		switch {
		case (werr == nil) != (gerr == nil):
			t.Fatalf("trial %d: %s: eval err=%v vm err=%v", trial, e, werr, gerr)
		case werr != nil:
			if werr.Error() != gerr.Error() {
				t.Fatalf("trial %d: %s: eval err=%q vm err=%q", trial, e, werr, gerr)
			}
		case !want.Equal(got):
			t.Fatalf("trial %d: %s: eval=%v vm=%v", trial, e, want, got)
		}
	}
}

func TestRunSlotsMatchesRun(t *testing.T) {
	prog, err := CompileText(`port in [80, 443] && role != "guest" || tos >= 4`)
	if err != nil {
		t.Fatal(err)
	}
	env := Env{"port": Num(443), "role": Str("member"), "tos": Num(2)}
	slots := make([]Value, len(prog.Attrs()))
	for i, name := range prog.Attrs() {
		slots[i] = env[name]
	}
	b := DefaultBudget()
	want, werr := prog.Run(env, &b)
	b2 := DefaultBudget()
	got, gerr := prog.RunSlots(slots, &b2)
	if werr != nil || gerr != nil || !want.Equal(got) {
		t.Fatalf("Run=%v/%v RunSlots=%v/%v", want, werr, got, gerr)
	}
	if b.stepsUsed != b2.stepsUsed {
		t.Fatalf("steps diverge: %d vs %d", b.stepsUsed, b2.stepsUsed)
	}
	if _, err := prog.RunSlots(slots[:1], &b2); err == nil {
		t.Fatal("short slot binding should error")
	}
}

// TestBudgetBoundary pins exact step accounting: a program that needs N
// steps passes with budget N and fails with N-1, for several shapes
// including short-circuits (where executed steps < instruction count).
func TestBudgetBoundary(t *testing.T) {
	cases := []struct {
		src string
		env Env
	}{
		{`port == 80`, Env{"port": Num(80)}},
		{`port in [80, 443]`, Env{"port": Num(22)}},
		{`false && missing == 1`, Env{}},
		{`true || missing == 1`, Env{}},
		{`(a && b) || (a && !b)`, Env{"a": Bool(true), "b": Bool(false)}},
		{`[port, 2] == [1, 2]`, Env{"port": Num(1)}},
	}
	for _, c := range cases {
		prog, err := CompileText(c.src)
		if err != nil {
			t.Fatal(err)
		}
		probe := NewBudget(1<<20, 1<<20)
		if _, err := prog.Run(c.env, &probe); err != nil {
			t.Fatalf("%s: probe: %v", c.src, err)
		}
		n := probe.stepsUsed
		if max := int64(len(prog.code)); n <= 0 || n > max {
			t.Fatalf("%s: steps=%d maxsteps=%d", c.src, n, max)
		}
		exact := NewBudget(n, 1<<20)
		if _, err := prog.Run(c.env, &exact); err != nil {
			t.Fatalf("%s: budget %d should suffice: %v", c.src, n, err)
		}
		starved := NewBudget(n-1, 1<<20)
		if _, err := prog.Run(c.env, &starved); !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("%s: budget %d should breach, got %v", c.src, n-1, err)
		}
	}
}

// TestAllocBudgetAccounting pins allocation-unit charging for the
// value-materializing ops: string constants, folded list constants, and
// dynamically built lists.
func TestAllocBudgetAccounting(t *testing.T) {
	cases := []struct {
		src   string
		env   Env
		units int64
	}{
		// One string constant: 1 unit.
		{`name == "bob"`, Env{"name": Str("bob")}, 1},
		// Folded constant list [80, 443]: 1 + 2 elements = 3 units,
		// charged on every invocation even though the value is pooled.
		{`port in [80, 443]`, Env{"port": Num(80)}, 3},
		// Folded list of strings: list (1+2) + 2 string cells = 5.
		{`name in ["alice", "bob"]`, Env{"name": Str("eve")}, 5},
		// Dynamic list [port, 2]: mklist charges 1+2; the "2" scalar
		// constant is free.
		{`[port, 2] == [1, 2]`, Env{"port": Num(1)}, 3 + 3}, // rhs folds to a 3-unit const
		// Pure scalar logic: zero units.
		{`port == 80 && port != 22`, Env{"port": Num(80)}, 0},
	}
	for _, c := range cases {
		prog, err := CompileText(c.src)
		if err != nil {
			t.Fatal(err)
		}
		b := NewBudget(1<<20, 1<<20)
		if _, err := prog.Run(c.env, &b); err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if b.allocsUsed != c.units {
			t.Fatalf("%s: allocs used = %d, want %d", c.src, b.allocsUsed, c.units)
		}
		if c.units > 0 {
			starved := NewBudget(1<<20, c.units-1)
			if _, err := prog.Run(c.env, &starved); !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("%s: alloc budget %d should breach, got %v", c.src, c.units-1, err)
			}
		}
	}
}

// TestBudgetAccumulatesAcrossRuns: a budget shared across invocations
// (as CompiledDocument.Evaluate shares one across rules) is cumulative
// until Reset.
func TestBudgetAccumulatesAcrossRuns(t *testing.T) {
	prog, err := CompileText(`port == 80`)
	if err != nil {
		t.Fatal(err)
	}
	env := Env{"port": Num(80)}
	probe := NewBudget(1<<20, 1<<20)
	prog.Run(env, &probe)
	per := probe.stepsUsed

	b := NewBudget(2*per, 1<<20)
	for i := 0; i < 2; i++ {
		if _, err := prog.Run(env, &b); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if _, err := prog.Run(env, &b); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("third run should exhaust the shared budget, got %v", err)
	}
}

// TestBudgetCanaryDeepPolicy is the CI canary: an adversarially long
// policy (100k clauses) compiles fine but must fail fast with
// ErrBudgetExceeded under a small step budget — bounded work, no hang.
func TestBudgetCanaryDeepPolicy(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 100_000; i++ {
		sb.WriteString("1 < 2 && ")
	}
	sb.WriteString("true")
	prog, err := CompileText(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	b := NewBudget(10_000, 10_000)
	_, err = prog.Run(Env{}, &b)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("hostile policy should breach its budget, got %v", err)
	}
	if b.stepsUsed > 10_001 {
		t.Fatalf("breach was not prompt: %d steps", b.stepsUsed)
	}
	// The tree-walker agrees on the value when given unlimited budget.
	v, err := prog.Run(Env{}, nil)
	if err != nil || !v.B {
		t.Fatalf("unmetered run: %v %v", v, err)
	}
}

// TestVMScalarZeroAlloc pins the steady-state contract: compiled scalar
// policies (including folded-list membership) evaluate with zero Go
// allocations from the pooled VM.
func TestVMScalarZeroAlloc(t *testing.T) {
	for _, src := range []string{
		`port == 80 || port == 443 && role != "guest"`,
		`port in [80, 443, 8080]`,
		`(a && b) || (tos >= 4 && !c)`,
	} {
		prog, err := CompileText(src)
		if err != nil {
			t.Fatal(err)
		}
		env := Env{
			"port": Num(443), "role": Str("member"), "tos": Num(5),
			"a": Bool(true), "b": Bool(false), "c": Bool(false),
		}
		prog.Run(env, nil) // warm the pool
		allocs := testing.AllocsPerRun(1000, func() {
			b := NewBudget(4096, 4096)
			if _, err := prog.Run(env, &b); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: %v allocs/op, want 0", src, allocs)
		}
		// The dense slot path too.
		slots := make([]Value, len(prog.Attrs()))
		for i, name := range prog.Attrs() {
			slots[i] = env[name]
		}
		allocs = testing.AllocsPerRun(1000, func() {
			b := NewBudget(4096, 4096)
			if _, err := prog.RunSlots(slots, &b); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: RunSlots %v allocs/op, want 0", src, allocs)
		}
	}
}

// TestEvalUnknownAttrZeroAlloc pins the satellite fix: the tree-walker's
// unknown-attribute error is pre-wrapped at parse time, so probing for a
// missing attribute no longer fmt.Sprintfs on the hot path.
func TestEvalUnknownAttrZeroAlloc(t *testing.T) {
	e, err := ParseExpr(`missing`)
	if err != nil {
		t.Fatal(err)
	}
	env := Env{}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := Eval(e, env); err == nil {
			t.Fatal("want unknown-attribute error")
		}
	})
	if allocs != 0 {
		t.Fatalf("Eval unknown-attribute path: %v allocs/op, want 0", allocs)
	}
	// And the VM's matching path.
	prog, err := Compile(e)
	if err != nil {
		t.Fatal(err)
	}
	prog.Run(env, nil)
	allocs = testing.AllocsPerRun(1000, func() {
		b := NewBudget(16, 16)
		if _, err := prog.Run(env, &b); err == nil {
			t.Fatal("want unknown-attribute error")
		}
	})
	if allocs != 0 {
		t.Fatalf("VM unknown-attribute path: %v allocs/op, want 0", allocs)
	}
}

func TestCompiledDocumentMatchesEvaluate(t *testing.T) {
	doc, err := Parse(aup)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := CompileDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	envs := []Env{
		{"port": Num(80), "direction": Str("inbound"), "role": Str("consumer"), "tos": Num(0)},
		{"port": Num(8080), "direction": Str("inbound"), "role": Str("consumer"), "tos": Num(0)},
		{"port": Num(8080), "direction": Str("inbound"), "role": Str("business"), "tos": Num(5)},
		{"port": Num(22), "direction": Str("outbound"), "role": Str("consumer"), "tos": Num(0)},
		{}, // every rule errors on a missing attribute → default
		{"port": Str("eighty"), "direction": Str("x"), "role": Num(1), "tos": Num(0)},
	}
	for _, env := range envs {
		want, werrs := Evaluate(doc, env)
		b := DefaultBudget()
		got, gerrs := cd.Evaluate(env, &b)
		if want != got {
			t.Fatalf("env %v: tree=%+v vm=%+v", env, want, got)
		}
		if len(werrs) != len(gerrs) {
			t.Fatalf("env %v: tree errs=%v vm errs=%v", env, werrs, gerrs)
		}
		for i := range werrs {
			if werrs[i].Error() != gerrs[i].Error() {
				t.Fatalf("env %v: err %d: %q vs %q", env, i, werrs[i], gerrs[i])
			}
		}
	}
}

func TestCacheCanonicalDedup(t *testing.T) {
	c := NewCache()
	p1, err := c.CompileText(`x == 1 && y in [2, 3]`)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.CompileText("x==1&&y in [2,3] # same policy, different text")
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("canonical dedup should share one Program across text variants")
	}
	// Memoized raw-text hit.
	p3, _ := c.CompileText(`x == 1 && y in [2, 3]`)
	if p3 != p1 {
		t.Fatal("raw-text memo miss")
	}
	// Errors are memoized, not recomputed.
	if _, err := c.CompileText(`x ==`); err == nil {
		t.Fatal("want parse error")
	}
	n := len(c.byText)
	if _, err := c.CompileText(`x ==`); err == nil || len(c.byText) != n {
		t.Fatal("parse errors should be cached")
	}
}

// BenchmarkPolicyEval is the shape × engine sweep behind the committed
// BENCH_policy.json baseline (cmd/tussle-bench -policy-json): a scalar
// predicate, a folded-constant list membership, and a three-level nested
// boolean, each through the metered VM (env map and dense-slot paths)
// and the tree-walking reference evaluator.
func BenchmarkPolicyEval(b *testing.B) {
	shapes := []struct {
		name, src string
	}{
		{"scalar", `port == 80 || port == 443 && role != "guest"`},
		{"member", `port in [80, 443, 8080, 8443]`},
		{"nested", `((paid && port == 443) || (ttl > 4 && port == 80)) && (!blocked || paid)`},
	}
	env := Env{
		"port": Num(443), "role": Str("member"),
		"ttl": Num(12), "paid": Bool(true), "blocked": Bool(false),
	}
	for _, sh := range shapes {
		prog, err := CompileText(sh.src)
		if err != nil {
			b.Fatal(err)
		}
		e, err := ParseExpr(sh.src)
		if err != nil {
			b.Fatal(err)
		}
		slots := make([]Value, len(prog.Attrs()))
		for i, name := range prog.Attrs() {
			slots[i] = env[name]
		}
		b.Run(sh.name+"/vm", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bud := NewBudget(4096, 4096)
				if _, err := prog.Run(env, &bud); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(sh.name+"/vm-slots", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bud := NewBudget(4096, 4096)
				if _, err := prog.RunSlots(slots, &bud); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(sh.name+"/tree", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Eval(e, env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
