package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestRunRejectsFlagsTheModeIgnores(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-nodes", "100000", "-faultplan", "p.json"}, "-faultplan has no effect with -nodes"},
		{[]string{"-nodes", "100", "-srcroute"}, "-srcroute has no effect with -nodes"},
		{[]string{"-nodes", "100", "-events", "ev.jsonl"}, "-events has no effect with -nodes"},
		{[]string{"-nodes", "100", "-mpstrategy", "shortest-k"}, "-mpstrategy has no effect with -nodes"},
		{[]string{"-shards", "4"}, "-shards has no effect in probe mode"},
		{[]string{"-chaos"}, "-chaos has no effect in probe mode"},
		{[]string{"-parallel=false", "-seed", "3"}, "-parallel has no effect in probe mode"},
		{[]string{"-mpbytes", "4096"}, "-mpbytes has no effect in probe mode"},
		{[]string{"-nodes", "0", "-seed", "3"}, "-nodes has no effect in probe mode"},
		{[]string{"-multipath", "-nodes", "100"}, "-nodes has no effect with -multipath"},
		{[]string{"-multipath", "-packets", "5"}, "-packets has no effect with -multipath"},
		{[]string{"-multipath", "-trace"}, "-trace has no effect with -multipath"},
		{[]string{"-multipath", "-fw-density", "0.5"}, "-fw-density has no effect with -multipath"},
	}
	for _, c := range cases {
		var out, errb bytes.Buffer
		if code := run(c.args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2; stderr %q", c.args, code, errb.String())
			continue
		}
		if !strings.Contains(errb.String(), "netsim: "+c.want) {
			t.Errorf("%v: stderr %q, want %q", c.args, errb.String(), c.want)
		}
		if out.Len() != 0 {
			t.Errorf("%v: a rejected run wrote stdout %q", c.args, out.String())
		}
	}
}

// Every flag a mode reads is accepted with it (small sizes, so each run
// takes milliseconds).
func TestRunAcceptsEachModesFlags(t *testing.T) {
	dir := t.TempDir()
	plan := filepath.Join(dir, "plan.json")
	if err := os.WriteFile(plan, []byte(`{"name":"t","seed":1,"events":[{"at_ms":5,"kind":"node-crash","node":3},{"at_ms":30,"kind":"node-recover","node":3}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	metrics := filepath.Join(dir, "m.json")
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-seed", "5", "-packets", "20", "-fw-density", "0.3", "-srcroute", "-trace",
			"-faultplan", plan, "-metrics", metrics, "-events", filepath.Join(dir, "ev.jsonl")},
			"path-vector reconverged 2 times"},
		{[]string{"-nodes", "300", "-shards", "2", "-parallel=false", "-chaos", "-packets", "500",
			"-seed", "3", "-metrics", metrics}, "delivered="},
		// Fewer nodes than the generator's seed clique: the run uses the
		// clique.
		{[]string{"-nodes", "1", "-packets", "10"}, "scale: nodes=3 links=3 sinks=1 packets=10"},
		{[]string{"-multipath", "-mpstrategy", "shortest-k", "-mpbytes", "4096", "-seed", "2",
			"-faultplan", plan, "-metrics", metrics}, "multipath shortest-k"},
	}
	for _, c := range cases {
		var out, errb bytes.Buffer
		if code := run(c.args, &out, &errb); code != 0 {
			t.Errorf("%v: exit %d; stderr %q", c.args, code, errb.String())
			continue
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%v: stdout lacks %q:\n%s", c.args, c.want, out.String())
		}
	}
}

// The scale geometry line on stderr names the cut links, the window and
// the drain's cross-shard handoffs: none on one shard, some on two.
func TestScaleGeometryLine(t *testing.T) {
	for _, c := range []struct {
		shards string
		want   *regexp.Regexp
	}{
		{"1", regexp.MustCompile(`netsim: scale: shards=1 window=0ns cross-links=0 handoffs=0 load`)},
		{"2", regexp.MustCompile(`netsim: scale: shards=2 window=\S+ cross-links=[1-9]\d* handoffs=[1-9]\d* load`)},
	} {
		var out, errb bytes.Buffer
		if code := run([]string{"-nodes", "300", "-shards", c.shards, "-packets", "500"}, &out, &errb); code != 0 {
			t.Fatalf("-shards %s: exit %d; stderr %q", c.shards, code, errb.String())
		}
		if !c.want.MatchString(errb.String()) {
			t.Errorf("-shards %s: stderr %q does not match %s", c.shards, errb.String(), c.want)
		}
	}
}

// The scale timing line on stderr gives set-up apart from the drain, each
// with the bytes it allocated, and keeps the " N events in " phrase make
// scale-smoke greps for; the drain of 500 packets on 300 nodes executes
// more events than it has packets.
func TestScaleTimingLine(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-nodes", "300", "-packets", "500"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d; stderr %q", code, errb.String())
	}
	want := regexp.MustCompile(`netsim: scale: set-up \S+, \d+\.\d MB allocated; drained 500 packets, [1-9]\d{3,} events in \S+, \d+\.\d MB allocated \(\d+ pkt/s, \d+ ev/s, GOMAXPROCS=\d+\)`)
	if !want.MatchString(errb.String()) {
		t.Errorf("stderr %q does not match %s", errb.String(), want)
	}
}
