package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunCleanSweep(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-trials", "25", "-seed", "42"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s, stdout: %s", code, errb.String(), out.String())
	}
	if !strings.Contains(out.String(), "25 trials clean") {
		t.Fatalf("summary missing: %q", out.String())
	}
}

func TestRunDeterministicOutput(t *testing.T) {
	var a, b bytes.Buffer
	run([]string{"-trials", "10", "-seed", "7"}, &a, &bytes.Buffer{})
	run([]string{"-trials", "10", "-seed", "7"}, &b, &bytes.Buffer{})
	if a.String() != b.String() {
		t.Fatalf("same flags, different output:\n%q\nvs\n%q", a.String(), b.String())
	}
}

func TestRunRejectsUnknownInvariant(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-invariants", "nope"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown invariant") {
		t.Fatalf("stderr missing diagnosis: %q", errb.String())
	}
}

func TestRunInvariantSubset(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-trials", "5", "-seed", "3", "-invariants", "conservation,clock"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "2 invariants armed") {
		t.Fatalf("summary should report the armed subset: %q", out.String())
	}
}

func TestReplayMissingFile(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-replay", filepath.Join(t.TempDir(), "nope.json")}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestReplayRejectsMalformed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"bogus":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-replay", path}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestRunRejectsFlagsTheModeIgnores(t *testing.T) {
	repro := filepath.Join(t.TempDir(), "r.json")
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-sharded", "-trials", "1", "-repro", repro}, "-repro has no effect with -sharded"},
		{[]string{"-sharded", "-trials", "1", "-shrink=false"}, "-shrink has no effect with -sharded"},
		{[]string{"-sharded", "-trials", "1", "-maxshrink", "10"}, "-maxshrink has no effect with -sharded"},
		{[]string{"-sharded", "-trials", "1", "-multipath"}, "-multipath has no effect with -sharded"},
		{[]string{"-replay", "missing.json", "-sharded"}, "-sharded has no effect with -replay"},
		{[]string{"-replay", "missing.json", "-trials", "5"}, "-trials has no effect with -replay"},
		{[]string{"-replay", "missing.json", "-v"}, "-v has no effect with -replay"},
		{[]string{"-trials", "1", "-shards", "4"}, "-shards has no effect without -sharded"},
	}
	for _, c := range cases {
		var out, errb bytes.Buffer
		if code := run(c.args, &out, &errb); code != 2 || !strings.Contains(errb.String(), c.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 naming %q", c.args, code, errb.String(), c.want)
		}
	}
}

func TestRunShardedSweep(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-sharded", "-trials", "2", "-seed", "42", "-shards", "2", "-v"}, &out, &errb)
	if code != 0 || !strings.Contains(out.String(), "2 sharded trials clean") {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, out.String(), errb.String())
	}
}
