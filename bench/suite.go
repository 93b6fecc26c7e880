package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// The suite workload: the paper's 30-experiment evaluation, run whole
// again and again, alternating the sequential runner and the parallel one
// at GOMAXPROCS. Many small simulations: routing, economics and
// game-theory set-up dominate, and it is the only workload that runs the
// parallel runner.

const (
	suiteRounds     = 3 // traced per-experiment passes
	suiteColdProbes = 4 // fresh-process cold runs, one as each quarter of the run ends
)

// suiteColdRun times one sequential suite run — the first one in a
// process pays every lazy initialisation — and returns its render.
func suiteColdRun(seed uint64) (time.Duration, string) {
	t0 := time.Now()
	rs := experiments.RunAll(seed, experiments.Options{Parallelism: 1})
	return time.Since(t0), renderSuite(rs)
}

// suiteColdProbe runs the benchmark binary in -cold-suite mode: a fresh
// process that times its first suite run and prints the seconds and its
// peak RSS in MiB.
func suiteColdProbe(exe string, seed uint64) (secs, rss float64, err error) {
	out, err := exec.Command(exe, "-cold-suite", "-seed", strconv.FormatUint(seed, 10)).Output()
	if err != nil {
		return 0, 0, fmt.Errorf("suite: cold probe: %w", err)
	}
	if _, err := fmt.Sscan(string(out), &secs, &rss); err != nil {
		return 0, 0, fmt.Errorf("suite: cold probe output %q: %w", out, err)
	}
	return secs, rss, nil
}

// renderSuite is the suite's text output, as the golden files hold it.
func renderSuite(rs []*experiments.Result) string {
	var b bytes.Buffer
	for _, r := range rs {
		r.Render(&b)
	}
	return b.String()
}

func runSuite(e *env) error {
	var want string
	if e.seed == 42 || e.seed == 7 {
		b, err := os.ReadFile(filepath.Join(e.root, "internal", "experiments", "testdata", fmt.Sprintf("suite_seed%d.golden", e.seed)))
		if err != nil {
			return fmt.Errorf("suite: golden: %w", err)
		}
		want = string(b)
	}
	rep := e.rep

	// Set-up: the cold first run, here and in fresh processes. Its peak
	// RSS is the suite's memory figure: once the parallel runner starts,
	// the peak depends on which experiments happen to overlap.
	cold, ref := suiteColdRun(e.seed)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	setups, rsss := []float64{cold.Seconds()}, []float64{rss}
	// More cold runs in fresh processes, spread over the run, so the median
	// samples all of it.
	probes := 0
	probe := func() error {
		probes++
		if e.exe == "" {
			return nil
		}
		secs, rss, err := suiteColdProbe(e.exe, e.seed)
		setups, rsss = append(setups, secs), append(rsss, rss)
		return err
	}
	// Every later run must render what the golden holds, or, for seeds
	// without one, what the cold sequential run rendered.
	refName := "the cold sequential run"
	rep.attempted++
	if want != "" {
		if ref != want {
			rep.failed++
			rep.fail("suite: cold run render differs from the seed-%d golden", e.seed)
		}
		ref, refName = want, fmt.Sprintf("the seed-%d golden", e.seed)
	}

	budget := e.budget
	if e.tr != nil {
		budget /= 2
	}
	var seq, par, seqCPU []float64
	base := churnTimer() // one round before each sequential run
	sched0, gc0 := readSched(), readMem().gcs
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < budget; i++ {
		for probes < suiteColdProbes-1 && time.Since(start) >= budget*time.Duration(probes+1)/suiteColdProbes {
			if err := probe(); err != nil {
				return err
			}
		}
		p := 1
		if i%2 == 1 {
			p = runtime.GOMAXPROCS(0)
		} else {
			runtime.GC()
			base.run()
		}
		// A collection first returns the previous run's garbage, so every
		// run starts from the same heap.
		runtime.GC()
		cpu0 := cpuTime()
		t0 := time.Now()
		rs := experiments.RunAll(e.seed, experiments.Options{Parallelism: p})
		wall := time.Since(t0)
		if p == 1 {
			seq = append(seq, wall.Seconds())
			seqCPU = append(seqCPU, float64((cpuTime() - cpu0).Microseconds()))
		} else {
			par = append(par, wall.Seconds())
		}
		rep.attempted++
		if renderSuite(rs) != ref {
			rep.failed++
			rep.fail("suite: parallelism-%d run %d render differs from %s", p, i, refName)
		}
	}
	sched1, gcs := readSched(), readMem().gcs-gc0
	for probes < suiteColdProbes {
		if err := probe(); err != nil {
			return err
		}
	}
	rep.set("setup_s", median(setups))
	rep.set("peak_rss_mb", median(rsss))
	rep.set("rel_time", median(seq)/(median(base.ns)/1e9))
	rep.layer("rate_per_s", 1/median(par))
	rep.layer("latency_ms", median(seq)*1e3)
	rep.layer("baseline_us", median(base.ns)/1e3)
	rep.layer("cpu_us_per_unit", median(seqCPU))
	rep.note("suite: %d sequential runs (%s s), %d at parallelism %d (%s s); cold runs %s s",
		len(seq), quantileNote(seq), len(par), runtime.GOMAXPROCS(0), quantileNote(par), quantileNote(setups))
	rep.note("suite: a sequential run took %.3f reference runs of %.1f ms (%s ns)",
		median(seq)/(median(base.ns)/1e9), median(base.ns)/1e6, quantileNote(base.ns))
	if e.tr == nil {
		return nil
	}

	// Per-layer: each experiment timed alone, in suite order, per round.
	list := experiments.List()
	per := make([][]float64, len(list))
	var traced []float64
	for r := 0; r < suiteRounds; r++ {
		req := uint64(r)
		r0 := e.tr.now()
		for i, x := range list {
			s := e.tr.now()
			x.Run(e.seed)
			end := e.tr.now()
			e.tr.add(span{ID: e.tr.childID(), Parent: rootID(req), Req: req, Name: "suite." + x.ID, Start: s, End: end})
			per[i] = append(per[i], float64(end-s)/1e6)
		}
		end := e.tr.now()
		e.tr.add(span{ID: rootID(req), Req: req, Name: "suite.round", Start: r0, End: end})
		traced = append(traced, float64(end-r0)/1e9)
	}
	critical := 0.0
	for i, x := range list {
		ms := median(per[i])
		rep.layer("suite."+x.ID+"_ms", ms)
		critical = max(critical, ms)
	}
	rep.layer("suite.critical_ms", critical)
	rep.layer("trace.overhead_pct", 100*(median(traced)-median(seq))/median(seq))
	rep.layer("go.gc_cycles", float64(gcs))
	rep.schedWait(sched0, sched1)

	reg := obs.NewRegistry()
	experiments.RunAll(e.seed, experiments.Options{Parallelism: 1, Obs: reg})
	for _, c := range reg.Snapshot().Counters {
		switch c.Name {
		case "routing.linkstate.spf_runs", "routing.pathvector.converge_runs":
			rep.layer(c.Name, float64(c.Value))
		}
	}
	return nil
}
