package main

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestRunRejectsFlagsTheModeIgnores(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	const sweepMode = "has no effect with -scale-json, -wire-json or -policy-json"
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-scale-json", a, "-json", b}, "-json " + sweepMode},
		{[]string{"-policy-json", a, "-json", b}, "-json " + sweepMode},
		{[]string{"-wire-json", a, "-only", "E1"}, "-only " + sweepMode},
		{[]string{"-policy-json", a, "-quiet"}, "-quiet " + sweepMode},
		{[]string{"-policy-json", a, "-markdown"}, "-markdown " + sweepMode},
		{[]string{"-policy-json", a, "-parallel", "2"}, "-parallel " + sweepMode},
		{[]string{"-policy-json", a, "-metrics", b}, "-metrics " + sweepMode},
		{[]string{"-policy-json", a, "-tolerance", "0.5"}, "-tolerance " + sweepMode},
		{[]string{"-policy-json", a, "-compare=false"}, "-compare " + sweepMode},
		{[]string{"-compare", "-seed", "7", a, b}, "-seed has no effect with -compare"},
		{[]string{"-compare", "-iters", "2", a, b}, "-iters has no effect with -compare"},
		{[]string{"-compare", "-json", a, b, b}, "-json has no effect with -compare"},
		{[]string{"-compare", "-scale-json", a, b, b}, "-scale-json has no effect with -compare"},
		{[]string{"-compare", "-metrics", a, b, b}, "-metrics has no effect with -compare"},
		{[]string{"-json", a, "-tolerance", "0.5"}, "-tolerance has no effect in suite mode"},
		{[]string{"-only", "E1", "-metrics", a, "-tolerance", "0.5"}, "-tolerance has no effect in suite mode"},
		{[]string{"-only", "E1", "-scale-json=", "-json", a}, "-scale-json has no effect in suite mode"},
	}
	for _, c := range cases {
		var out, errb bytes.Buffer
		if code := run(c.args, &out, &errb); code != 2 {
			t.Errorf("%q: exit %d, want 2; stderr: %s", c.args, code, errb.String())
		}
		if !strings.Contains(errb.String(), c.want) {
			t.Errorf("%q: stderr %q lacks %q", c.args, errb.String(), c.want)
		}
		for _, p := range []string{a, b} {
			if _, err := os.Stat(p); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("%q: wrote %s (stat: %v)", c.args, p, err)
				os.Remove(p)
			}
		}
	}
}

// Suite mode takes its own flags, prints only the experiments -only
// names, and writes no sweep file when none is named.
func TestRunSuiteMode(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-quiet", "-only", "e3, E1", "-seed", "42", "-parallel", "1", "-iters", "1"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, errb.String())
	}
	var ids []string
	for _, line := range strings.Split(out.String(), "\n") {
		if id, _, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, " ") {
			ids = append(ids, id)
		}
	}
	if want := []string{"E1", "E3"}; !slices.Equal(ids, want) {
		t.Errorf("printed %q, want %q:\n%s", ids, want, out.String())
	}
	if errb.Len() != 0 {
		t.Errorf("stderr: %s", errb.String())
	}
	if code := run([]string{"-only", "E99"}, &out, &errb); code != 1 {
		t.Errorf("-only E99: exit %d, want 1", code)
	}
}

// compareSuites does not gate a row found in only one file, so a sweep
// that lost a row would pass every -compare step; its row IDs must equal
// those of its committed file, in order. Building the table runs no row.
func TestSweepRowsMatchCommittedFiles(t *testing.T) {
	files := map[string]string{
		"json":        "BENCH_suite.json",
		"scale-json":  "BENCH_scale.json",
		"wire-json":   "BENCH_wire.json",
		"policy-json": "BENCH_policy.json",
	}
	var flags []string
	for _, sw := range sweeps(42, 0) {
		flags = append(flags, sw.flag)
		name, ok := files[sw.flag]
		if !ok {
			t.Errorf("sweep -%s has no committed file", sw.flag)
			continue
		}
		committed, err := loadSuite(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		var want, got []string
		for _, e := range committed.Experiments {
			want = append(want, e.ID)
		}
		for _, r := range sw.rows {
			got = append(got, r.id)
		}
		if !slices.Equal(got, want) {
			t.Errorf("-%s rows = %q, want %s's %q", sw.flag, got, name, want)
		}
	}
	if want := []string{"json", "scale-json", "wire-json", "policy-json"}; !slices.Equal(flags, want) {
		t.Errorf("sweep table = %q, want %q", flags, want)
	}
}

var measureSink []byte

// measure divides by the row's op count and keeps each dimension's
// smallest run: one 64-byte escaping allocation per op reads as exactly
// one alloc/op even when one of the runs allocates twice as much.
func TestMeasure(t *testing.T) {
	const ops = 1000
	for heavy := 1; heavy <= 3; heavy++ { // which measured run allocates more
		for _, pauseGC := range []bool{false, true} {
			calls := 0
			r := row{id: "fake", ops: ops, run: func(n int) error {
				if calls++; calls == 1+heavy { // call 1 is the warm-up
					n += ops
				}
				for range n {
					measureSink = make([]byte, 64)
				}
				return nil
			}}
			got, err := measure(r, 3, pauseGC)
			if err != nil {
				t.Fatal(err)
			}
			if got.ID != "fake" || got.AllocsPerOp != 1 || got.BytesPerOp < 64 || got.NsPerOp <= 0 {
				t.Errorf("heavy run %d, pauseGC %v: got %+v, want allocs/op 1, bytes/op >= 64, ns/op > 0",
					heavy, pauseGC, got)
			}
			if calls != 4 {
				t.Errorf("heavy run %d: %d calls, want a warm-up and 3 runs", heavy, calls)
			}
		}
	}

	fail := errors.New("sanity check failed")
	if _, err := measure(row{id: "bad", ops: 1, run: func(int) error { return fail }}, 3, false); !errors.Is(err, fail) {
		t.Errorf("failing row: err = %v, want %v", err, fail)
	}
}
