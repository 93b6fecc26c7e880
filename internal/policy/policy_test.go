package policy

import (
	"strings"
	"testing"
	"testing/quick"
)

const aup = `
# Residential broadband acceptable-use policy (§V-A2 of the paper).
policy "broadband-aup" {
    principal isp
    applies-to traffic

    rule web { when port == 80 || port == 443 then permit }
    rule no-servers {
        when direction == "inbound" && role != "business"
        then deny "servers require the business tier"
    }
    rule premium { when tos >= 4 then price 5.0 }
    default permit
}
`

func TestParseDocument(t *testing.T) {
	doc, err := Parse(aup)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Name != "broadband-aup" {
		t.Fatalf("header: %+v", doc)
	}
	if len(doc.Rules) != 3 {
		t.Fatalf("rules = %d", len(doc.Rules))
	}
	if !doc.HasDefault || doc.Default.Kind != Permit {
		t.Fatalf("default = %+v", doc.Default)
	}
	if doc.Rules[1].Then.Kind != Deny || !strings.Contains(doc.Rules[1].Then.Reason, "business tier") {
		t.Fatalf("deny rule = %+v", doc.Rules[1].Then)
	}
	if doc.Rules[2].Then.Kind != Price || doc.Rules[2].Then.Amount != 5.0 {
		t.Fatalf("price rule = %+v", doc.Rules[2].Then)
	}
}

func TestEvaluateFirstMatchWins(t *testing.T) {
	doc, err := Parse(aup)
	if err != nil {
		t.Fatal(err)
	}
	// Web traffic permitted even inbound for consumers (rule order).
	d, errs := Evaluate(doc, Env{
		"port": Num(80), "direction": Str("inbound"), "role": Str("consumer"), "tos": Num(0),
	})
	if len(errs) != 0 || d.Rule != "web" || !d.Permitted() {
		t.Fatalf("decision = %+v errs=%v", d, errs)
	}
	// Inbound non-web consumer traffic denied.
	d, _ = Evaluate(doc, Env{
		"port": Num(8080), "direction": Str("inbound"), "role": Str("consumer"), "tos": Num(0),
	})
	if d.Action.Kind != Deny || d.Rule != "no-servers" {
		t.Fatalf("decision = %+v", d)
	}
	// Business inbound allowed at a price when tos >= 4.
	d, _ = Evaluate(doc, Env{
		"port": Num(8080), "direction": Str("inbound"), "role": Str("business"), "tos": Num(5),
	})
	if d.Action.Kind != Price || d.Action.Amount != 5.0 {
		t.Fatalf("decision = %+v", d)
	}
	// Default: outbound consumer traffic permitted.
	d, _ = Evaluate(doc, Env{
		"port": Num(22), "direction": Str("outbound"), "role": Str("consumer"), "tos": Num(0),
	})
	if !d.Default || d.Action.Kind != Permit {
		t.Fatalf("decision = %+v", d)
	}
}

func TestDefaultDenyWhenNoDefault(t *testing.T) {
	doc, err := Parse(`policy "strict" { rule a { when x == 1 then permit } }`)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := Evaluate(doc, Env{"x": Num(2)})
	if d.Action.Kind != Deny || !d.Default {
		t.Fatalf("decision = %+v", d)
	}
}

func TestRuleErrorSkipsToNext(t *testing.T) {
	doc, err := Parse(`policy "p" {
        rule broken { when nonexistent == 1 then deny }
        rule ok { when x == 1 then permit }
    }`)
	if err != nil {
		t.Fatal(err)
	}
	d, errs := Evaluate(doc, Env{"x": Num(1)})
	if len(errs) != 1 {
		t.Fatalf("errs = %v", errs)
	}
	if d.Rule != "ok" || !d.Permitted() {
		t.Fatalf("decision = %+v", d)
	}
}

func TestRequireAction(t *testing.T) {
	doc, err := Parse(`policy "fw" {
        rule anon { when identity-scheme == "anonymous" then require certified-identity }
        default permit
    }`)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := Evaluate(doc, Env{"identity-scheme": Str("anonymous")})
	if d.Action.Kind != Require || d.Action.What != "certified-identity" {
		t.Fatalf("decision = %+v", d)
	}
}

func TestExprOperators(t *testing.T) {
	cases := []struct {
		src  string
		env  Env
		want bool
	}{
		{`1 < 2`, nil, true},
		{`2 <= 2`, nil, true},
		{`3 > 4`, nil, false},
		{`"a" < "b"`, nil, true},
		{`"x" != "y"`, nil, true},
		{`port in [80, 443, 8080]`, Env{"port": Num(443)}, true},
		{`port in [80, 443]`, Env{"port": Num(22)}, false},
		{`!(a && b)`, Env{"a": Bool(true), "b": Bool(false)}, true},
		{`a || b`, Env{"a": Bool(false), "b": Bool(true)}, true},
		{`true && false`, nil, false},
		{`x == -1.5`, Env{"x": Num(-1.5)}, true},
		{`name in ["alice", "bob"]`, Env{"name": Str("bob")}, true},
	}
	for _, c := range cases {
		e, err := ParseExpr(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		v, err := Eval(e, c.env)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if v.Kind != KindBool || v.B != c.want {
			t.Errorf("%s = %v, want %v", c.src, v, c.want)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	// Right side references an unknown attribute, but short-circuiting
	// must avoid evaluating it.
	e, err := ParseExpr(`false && missing == 1`)
	if err != nil {
		t.Fatal(err)
	}
	v, err := Eval(e, Env{})
	if err != nil || v.B {
		t.Fatalf("short-circuit AND failed: %v %v", v, err)
	}
	e2, _ := ParseExpr(`true || missing == 1`)
	v2, err := Eval(e2, Env{})
	if err != nil || !v2.B {
		t.Fatalf("short-circuit OR failed: %v %v", v2, err)
	}
}

func TestTypeErrors(t *testing.T) {
	for _, src := range []string{
		`1 && true`,
		`"a" < 1`,
		`!5`,
		`1 in 2`,
	} {
		e, err := ParseExpr(src)
		if err != nil {
			t.Fatalf("%s should parse: %v", src, err)
		}
		if _, err := Eval(e, Env{}); err == nil {
			t.Errorf("%s should fail type-checking at eval", src)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		`policy { }`,                                       // missing name
		`policy "x" { rule { } }`,                          // missing rule name
		`policy "x" { rule a { when } }`,                   // missing condition
		`policy "x" { bogus }`,                             // unknown decl
		`policy "x" { default explode }`,                   // unknown action
		`policy "x" { } trailing`,                          // trailing tokens
		`policy "x" { rule a { when x = 1 then permit } }`, // single =
		`policy "x" { default permit default deny }`,       // dup default
		`policy "x" { rule a { when x == 1 then price "s" } }`,
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("%q should not parse", src)
		}
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{
		`"unterminated`,
		`"bad \q escape"`,
		`a & b`,
		`a | b`,
		"\"newline\nin string\"",
		`@`,
	} {
		if _, err := lex(src); err == nil {
			t.Errorf("%q should fail lexing", src)
		}
	}
}

func TestComments(t *testing.T) {
	doc, err := Parse(`
# leading comment
policy "c" { # trailing comment
    rule a { when x == 1 then permit } # another
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Rules) != 1 {
		t.Fatal("comment handling broke parsing")
	}
}

func TestStringEscapes(t *testing.T) {
	e, err := ParseExpr(`msg == "line1\nline2\t\"quoted\""`)
	if err != nil {
		t.Fatal(err)
	}
	v, err := Eval(e, Env{"msg": Str("line1\nline2\t\"quoted\"")})
	if err != nil || !v.B {
		t.Fatalf("escape round-trip failed: %v %v", v, err)
	}
}

func TestAttributesAndAnalyze(t *testing.T) {
	doc, err := Parse(aup)
	if err != nil {
		t.Fatal(err)
	}
	attrs := doc.Attributes()
	want := map[string]bool{"port": true, "direction": true, "role": true, "tos": true}
	if len(attrs) != len(want) {
		t.Fatalf("attributes = %v", attrs)
	}
	for _, a := range attrs {
		if !want[a] {
			t.Fatalf("unexpected attribute %q", a)
		}
	}
	// Full vocabulary: nothing out of ontology.
	if out := Analyze(doc, []string{"port", "direction", "role", "tos"}); len(out) != 0 {
		t.Fatalf("Analyze = %v", out)
	}
	// Restricted ontology: the unanticipated tussle dimensions surface.
	out := Analyze(doc, []string{"port"})
	if len(out) != 3 || out[0] != "direction" {
		t.Fatalf("Analyze = %v", out)
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Bool(true), "true"},
		{Num(42), "42"},
		{Num(1.5), "1.5"},
		{Str("hi"), `"hi"`},
		{List(Num(1), Str("a")), `[1, "a"]`},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestValueEqual(t *testing.T) {
	if !List(Num(1), Num(2)).Equal(List(Num(1), Num(2))) {
		t.Fatal("equal lists unequal")
	}
	if List(Num(1)).Equal(List(Num(1), Num(2))) {
		t.Fatal("different-length lists equal")
	}
	if Num(1).Equal(Str("1")) {
		t.Fatal("cross-kind equality")
	}
}

func TestExprStringRoundTrip(t *testing.T) {
	// Rendering an expression and reparsing it must preserve semantics.
	srcs := []string{
		`port == 80 || port == 443 && role != "guest"`,
		`x in [1, 2, 3]`,
		`!(a || b)`,
	}
	env := Env{"port": Num(80), "role": Str("guest"), "x": Num(2), "a": Bool(false), "b": Bool(false)}
	for _, src := range srcs {
		e1, err := ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		e2, err := ParseExpr(e1.String())
		if err != nil {
			t.Fatalf("rendered form %q does not reparse: %v", e1.String(), err)
		}
		v1, err1 := Eval(e1, env)
		v2, err2 := Eval(e2, env)
		if err1 != nil || err2 != nil || !v1.Equal(v2) {
			t.Fatalf("%s: %v/%v vs %v/%v", src, v1, err1, v2, err2)
		}
	}
}

func TestLexNeverPanicsQuick(t *testing.T) {
	f := func(src string) bool {
		_, _ = lex(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestParseNeverPanicsQuick(t *testing.T) {
	f := func(src string) bool {
		_, _ = Parse(src)
		_, _ = ParseExpr(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestNumberComparisonQuick(t *testing.T) {
	f := func(a, b float64) bool {
		e, err := ParseExpr("x < y")
		if err != nil {
			return false
		}
		v, err := Eval(e, Env{"x": Num(a), "y": Num(b)})
		return err == nil && v.B == (a < b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
