// Command tussle-check runs property-based invariant sweeps over the
// simulator: seeded random topologies, traffic matrices, and chaos fault
// plans, executed with the runtime invariant checker armed. Failures are
// automatically shrunk (delta debugging over the fault plan and traffic
// matrix) to minimal reproducers emitted as canonical JSON.
//
// Usage:
//
//	tussle-check -trials 500 -seed 42                 # sweep
//	tussle-check -invariants conservation,loop-free   # arm a subset
//	tussle-check -repro repro.json                    # write first shrunk repro
//	tussle-check -replay repro.json                   # re-run a reproducer
//	tussle-check -multipath -trials 300               # stress the multipath data plane
//	tussle-check -sharded -trials 500 -shards 4       # sweep the sharded core
//
// A flag the chosen mode ignores (-repro with -sharded, -shards without
// it, anything but -invariants with -replay) exits 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/invariant"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tussle-check", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		trials     = fs.Int("trials", 100, "number of seeded scenarios to run")
		seed       = fs.Uint64("seed", 42, "sweep seed (salts every trial)")
		invariants = fs.String("invariants", "all", "comma-separated invariant subset, or \"all\"")
		shrink     = fs.Bool("shrink", true, "shrink failures to minimal reproducers")
		maxShrink  = fs.Int("maxshrink", 400, "max candidate runs per shrink")
		reproPath  = fs.String("repro", "", "write the first shrunk reproducer to this file")
		replayPath = fs.String("replay", "", "replay a reproducer file instead of sweeping")
		multi      = fs.Bool("multipath", false, "force every generated transfer onto the multipath sender")
		sharded    = fs.Bool("sharded", false, "sweep sharded scale scenarios (one checker per shard)")
		shards     = fs.Int("shards", 0, "with -sharded: pin the shard count (0 rotates 2/4/8)")
		verbose    = fs.Bool("v", false, "print per-failure violation details")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Each mode reads only some of the flags. One set explicitly that the
	// chosen mode would ignore is an error: -sharded -repro r.json must
	// not exit 1 on a failure without writing r.json.
	mode, reads := "without -sharded", "trials seed invariants shrink maxshrink repro multipath sharded v"
	switch {
	case *replayPath != "":
		mode, reads = "with -replay", "replay invariants"
	case *sharded:
		mode, reads = "with -sharded", "sharded shards trials seed invariants v"
	}
	ignored := ""
	fs.Visit(func(f *flag.Flag) {
		if ignored == "" && !slices.Contains(strings.Fields(reads), f.Name) {
			ignored = f.Name
		}
	})
	if ignored != "" {
		fmt.Fprintf(stderr, "tussle-check: -%s has no effect %s\n", ignored, mode)
		return 2
	}
	enabled, err := invariant.ParseSet(*invariants)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if *replayPath != "" {
		return replay(*replayPath, enabled, stdout, stderr)
	}

	if *sharded {
		res := invariant.SweepSharded(invariant.Config{
			Trials: *trials, Seed: *seed, Invariants: enabled,
		}, *shards)
		if res.Clean() {
			fmt.Fprintf(stdout, "tussle-check: %d sharded trials clean (seed %d, one checker per shard)\n",
				res.Trials, *seed)
			return 0
		}
		printFailures(stdout, "sharded trials", res, *seed, *verbose)
		return 1
	}

	res := invariant.Sweep(invariant.Config{
		Trials:         *trials,
		Seed:           *seed,
		Invariants:     enabled,
		Shrink:         *shrink,
		MaxShrinkRuns:  *maxShrink,
		ForceMultipath: *multi,
	})
	if res.Clean() {
		fmt.Fprintf(stdout, "tussle-check: %d trials clean (seed %d, %d invariants armed)\n",
			res.Trials, *seed, len(enabled))
		return 0
	}

	printFailures(stdout, "trials", res, *seed, *verbose)
	if *reproPath != "" {
		if err := writeFirstRepro(res, *reproPath); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		fmt.Fprintf(stdout, "reproducer written to %s\n", *reproPath)
	}
	return 1
}

// printFailures reports the failed trials of res, which ran as many of
// what: each one's first violation, the rest with verbose, and the size
// of its shrunk reproducer when it has one.
func printFailures(w io.Writer, what string, res *invariant.Result, seed uint64, verbose bool) {
	fmt.Fprintf(w, "tussle-check: %d of %d %s FAILED (seed %d)\n", len(res.Failures), res.Trials, what, seed)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  trial %d (seed %d): %d violation(s), first: %s\n",
			f.Trial, f.Seed, len(f.Violations), f.Violations[0].String())
		if verbose {
			for _, v := range f.Violations[1:] {
				fmt.Fprintf(w, "    %s\n", v.String())
			}
		}
		if f.Repro != nil {
			fmt.Fprintf(w, "    shrunk: %d plan events, %d traffic entries\n",
				len(f.Repro.Scenario.Plan.Events), len(f.Repro.Scenario.Traffic))
		}
	}
}

// writeFirstRepro emits the first shrunk reproducer as canonical JSON.
func writeFirstRepro(res *invariant.Result, path string) error {
	for _, f := range res.Failures {
		if f.Repro == nil {
			continue
		}
		buf, err := f.Repro.Encode()
		if err != nil {
			return err
		}
		return os.WriteFile(path, buf, 0o644)
	}
	return fmt.Errorf("tussle-check: no shrunk reproducer to write")
}

// replay re-runs a reproducer file and reports whether it still fires.
func replay(path string, enabled map[string]bool, stdout, stderr io.Writer) int {
	buf, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	r, err := invariant.ParseRepro(buf)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	vs := invariant.Replay(r, enabled)
	if len(vs) == 0 {
		fmt.Fprintf(stdout, "tussle-check: reproducer %s did NOT fire (0 violations)\n", path)
		return 1
	}
	fmt.Fprintf(stdout, "tussle-check: reproducer fired %d violation(s):\n", len(vs))
	for _, v := range vs {
		fmt.Fprintf(stdout, "  %s\n", v.String())
	}
	return 0
}
