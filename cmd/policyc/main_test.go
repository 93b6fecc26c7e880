package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/policy"
)

func TestParseValue(t *testing.T) {
	cases := []struct {
		in   string
		want policy.Value
	}{
		{"42", policy.Num(42)},
		{"-1.5", policy.Num(-1.5)},
		{"true", policy.Bool(true)},
		{"false", policy.Bool(false)},
		{"hello", policy.Str("hello")},
		{"80x", policy.Str("80x")},
		{"1e3", policy.Num(1000)},
		{"Nan", policy.Str("Nan")},
		{"inf", policy.Str("inf")},
		{"Infinity", policy.Str("Infinity")},
		{"0x1p4", policy.Str("0x1p4")},
		{"1e999", policy.Str("1e999")},
		{"1_000", policy.Str("1_000")},
	}
	for _, c := range cases {
		if got := parseValue(c.in); !got.Equal(c.want) {
			t.Errorf("parseValue(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestDefaultOf(t *testing.T) {
	withDefault, err := policy.Parse(`policy "a" { default permit }`)
	if err != nil {
		t.Fatal(err)
	}
	if defaultOf(withDefault) != "permit" {
		t.Fatal("explicit default wrong")
	}
	without, err := policy.Parse(`policy "b" { rule r { when x == 1 then permit } }`)
	if err != nil {
		t.Fatal(err)
	}
	if defaultOf(without) != "deny (implicit)" {
		t.Fatal("implicit default wrong")
	}
}

// check -vocab exits 0 when every attribute is in the ontology and 2,
// naming the strays, when one is not.
func TestRunCheckVocab(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fw.tpl")
	src := `policy "fw" { rule web { when port == 80 && role != "guest" then permit } }`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		vocab string
		code  int
		want  string
	}{
		{"port,role", 0, "ontology: all attributes within vocabulary"},
		{"port", 2, "ontology: OUTSIDE vocabulary: role"},
	}
	for _, c := range cases {
		var out, errb bytes.Buffer
		if code := run([]string{"check", path, "-vocab", c.vocab}, &out, &errb); code != c.code || !strings.Contains(out.String(), c.want) {
			t.Errorf("-vocab %s: exit %d, stdout %q, stderr %q; want exit %d and %q", c.vocab, code, out.String(), errb.String(), c.code, c.want)
		}
	}
}
