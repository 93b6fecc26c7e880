package main

// The committed baselines: one table of sweeps, each written to its
// BENCH_*.json file, and one loop (measure) that times every row of every
// sweep, so how a baseline row is measured is decided in one place.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/experiments"
	"repro/internal/policy"
	"repro/internal/scale"
	"repro/internal/wire"
)

// expBench is one row's measured cost.
type expBench struct {
	ID          string `json:"id"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp uint64 `json:"allocs_per_op"`
	BytesPerOp  uint64 `json:"bytes_per_op"`
}

// suiteBench is one baseline file: the host, the sweep's header and its
// rows. Every sweep writes this schema, so -compare gates them all.
type suiteBench struct {
	Seed         uint64 `json:"seed"`
	Iters        int    `json:"iters"`
	GOOS         string `json:"goos"`
	GOARCH       string `json:"goarch"`
	NumCPU       int    `json:"num_cpu"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	Parallelism  int    `json:"parallelism"`
	SequentialNs int64  `json:"suite_sequential_ns"`
	ParallelNs   int64  `json:"suite_parallel_ns"`
	// Speedup is null (not a number) when the host cannot express
	// parallelism — on a single-core host sequential vs parallel wall
	// time measures only goroutine-switch overhead, and recording the
	// resulting ~1.0x as a baseline would make -compare treat real
	// multi-core speedups as regressions. SpeedupNote says why.
	Speedup     *float64   `json:"suite_speedup"`
	SpeedupNote string     `json:"suite_speedup_note,omitempty"`
	Experiments []expBench `json:"experiments"`
}

// row is one measured line of a baseline: run(n) performs n ops and
// returns an error when the run's own sanity check fails.
type row struct {
	id  string
	ops int
	run func(n int) error
}

// sweep is one baseline file and how its header reads.
type sweep struct {
	flag        string // the flag naming the file
	note        string // suite_speedup_note (the suite's finish sets its own)
	seed        uint64 // recorded seed; 0 for sweeps no seed reaches
	parallelism int    // recorded parallelism; 0 means GOMAXPROCS
	// pauseGC keeps GC off through each measured run. Only the suite
	// pauses it: a collection mid-run empties every sync.Pool at a
	// timing-dependent point, and the refills show up as a few spurious
	// allocations that the minimum cannot reliably filter on the
	// allocation-heavy experiments. The scale rows (325 MB allocated by
	// the 100k-node run) would record a different heap without GC.
	pauseGC bool
	rows    []row
	// open, if set, builds what the rows run against and returns its
	// closer; finish, if set, completes the header after the rows.
	open   func() (func(), error)
	finish func(sb *suiteBench, iters int)
}

// sweeps is the table, in the order sweep mode writes the files.
func sweeps(seed uint64, parallel int) []sweep {
	return []sweep{suiteSweep(seed, parallel), scaleSweep(seed), wireSweep(), policySweep()}
}

// measure warms r with min(r.ops, 20000) ops, then runs it iters times
// and returns the minimum ns, allocs and bytes over those runs, each
// divided by r.ops. Each dimension takes its own minimum: timing noise
// (preemption, GC, neighbours on the machine) only adds, and the MemStats
// delta around a run now and then picks up a stray runtime allocation
// (GC bookkeeping, background timers), so the minimum is the figure the
// host moves least. It still moves: see ROADMAP.md's first open item.
func measure(r row, iters int, pauseGC bool) (expBench, error) {
	if err := r.run(min(r.ops, 20_000)); err != nil {
		return expBench{}, err
	}
	b := expBench{ID: r.id, NsPerOp: math.MaxInt64, AllocsPerOp: math.MaxUint64, BytesPerOp: math.MaxUint64}
	var m0, m1 runtime.MemStats
	for range iters {
		runtime.GC()
		gcPct := 0
		if pauseGC {
			gcPct = debug.SetGCPercent(-1)
		}
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		err := r.run(r.ops)
		ns := time.Since(t0).Nanoseconds()
		runtime.ReadMemStats(&m1)
		if pauseGC {
			debug.SetGCPercent(gcPct)
		}
		if err != nil {
			return expBench{}, err
		}
		b.NsPerOp = min(b.NsPerOp, ns)
		b.AllocsPerOp = min(b.AllocsPerOp, m1.Mallocs-m0.Mallocs)
		b.BytesPerOp = min(b.BytesPerOp, m1.TotalAlloc-m0.TotalAlloc)
	}
	b.NsPerOp /= int64(r.ops)
	b.AllocsPerOp /= uint64(r.ops)
	b.BytesPerOp /= uint64(r.ops)
	return b, nil
}

// runSweep measures every row of sw and writes the file at path.
func runSweep(sw sweep, path string, iters int, stderr io.Writer) error {
	sb := suiteBench{
		Seed: sw.seed, Iters: iters, GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Parallelism: sw.parallelism, SpeedupNote: sw.note,
	}
	if sb.Parallelism <= 0 {
		sb.Parallelism = runtime.GOMAXPROCS(0)
	}
	if sw.open != nil {
		closer, err := sw.open()
		if err != nil {
			return fmt.Errorf("%s: %w", sw.flag, err)
		}
		defer closer()
	}
	for _, r := range sw.rows {
		e, err := measure(r, iters, sw.pauseGC)
		if err != nil {
			return fmt.Errorf("%s: %w", r.id, err)
		}
		fmt.Fprintf(stderr, "tussle-bench: %-17s %12d ns/op %8d allocs/op %10d B/op\n",
			e.ID, e.NsPerOp, e.AllocsPerOp, e.BytesPerOp)
		sb.Experiments = append(sb.Experiments, e)
	}
	if sw.finish != nil {
		sw.finish(&sb, iters)
	}
	buf, err := json.MarshalIndent(sb, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "tussle-bench: wrote %s\n", path)
	return nil
}

// suiteSweep is BENCH_suite.json: one row per experiment (one op is one
// run at the seed), then the whole suite's wall time, sequential and with
// the parallel runner.
func suiteSweep(seed uint64, parallel int) sweep {
	sw := sweep{flag: "json", seed: seed, parallelism: parallel, pauseGC: true}
	for _, exp := range experiments.List() {
		sw.rows = append(sw.rows, row{exp.ID, 1, func(n int) error {
			for range n {
				exp.Run(seed)
			}
			return nil
		}})
	}
	sw.finish = func(sb *suiteBench, iters int) {
		t0 := time.Now()
		for range iters {
			experiments.All(seed)
		}
		sb.SequentialNs = time.Since(t0).Nanoseconds() / int64(iters)
		t0 = time.Now()
		for range iters {
			experiments.RunAll(seed, experiments.Options{Parallelism: sb.Parallelism})
		}
		sb.ParallelNs = time.Since(t0).Nanoseconds() / int64(iters)
		switch {
		case sb.GOMAXPROCS == 1:
			sb.SpeedupNote = "GOMAXPROCS=1: parallel speedup is not measurable on a single-core host"
		case sb.ParallelNs > 0:
			sp := float64(sb.SequentialNs) / float64(sb.ParallelNs)
			sb.Speedup = &sp
		}
	}
	return sw
}

// scaleSweep is BENCH_scale.json, the BenchmarkScaleForward sweep: one
// op is one end-to-end sharded-core run (topology, routing tables, full
// drain) at each of three orders of magnitude, and every packet must
// terminate.
func scaleSweep(seed uint64) sweep {
	sw := sweep{flag: "scale-json", seed: seed, parallelism: 1,
		note: "scale sweep: per-size end-to-end runs, no suite-level parallel phase"}
	for _, sz := range []struct {
		id             string
		nodes, packets int
	}{
		{"scale-1k", 1_000, 20_000},
		{"scale-10k", 10_000, 100_000},
		{"scale-100k", 100_000, 500_000},
	} {
		cfg := scale.Config{Nodes: sz.nodes, Packets: sz.packets, Seed: seed, Shards: 1}
		sw.rows = append(sw.rows, row{sz.id, 1, func(n int) error {
			for range n {
				if res := scale.Run(cfg); res.Delivered+res.Dropped != cfg.Packets {
					return fmt.Errorf("terminated %d of %d packets", res.Delivered+res.Dropped, cfg.Packets)
				}
			}
			return nil
		}})
	}
	return sw
}

// wireSweep is BENCH_wire.json, the live UDP engine. One op is one
// packet, so the bounded per-run allocations of the loopback rows
// (client goroutines, socket setup) vanish under the division by the
// packet count, while any per-packet allocation registers as ≥1.
func wireSweep() sweep {
	var (
		proc *wire.ProcessBench
		loop *wire.LoopbackBench
		mp   *wire.MultipathLoopbackBench
	)
	return sweep{
		flag: "wire-json",
		note: fmt.Sprintf("wire sweep on a %d-core host: wire-process is the single-core kernel ceiling; wire-loopback round-trips client and server on the same cores, so its pps is the documented fallback when cores < 2",
			runtime.NumCPU()),
		open: func() (func(), error) {
			var err error
			if proc, err = wire.NewProcessBench(); err != nil {
				return nil, err
			}
			if loop, err = wire.NewLoopbackBench(runtime.GOMAXPROCS(0)); err != nil {
				return nil, err
			}
			if mp, err = wire.NewMultipathLoopbackBench(runtime.GOMAXPROCS(0)); err != nil {
				loop.Close()
				return nil, err
			}
			return func() { mp.Close(); loop.Close() }, nil
		},
		rows: []row{
			// The decision kernel alone (filter → decode → TTL patch →
			// route), no sockets: the per-core ceiling.
			{"wire-process", 2_000_000, func(n int) error { return proc.Run(n) }},
			// The full engine over real UDP on loopback: one op is a
			// complete client→server→client round trip.
			{"wire-loopback", 200_000, func(n int) error {
				res, err := loop.Run(n)
				if err == nil && res.Received == 0 {
					err = fmt.Errorf("no echoes came back: %+v", res)
				}
				return err
			}},
			// The striped multipath transfer over real UDP: one op is one
			// data segment out across the three-path stripe and its
			// cumulative ACK back, reassembly verified byte-exact per run.
			{"wire-mp-roundtrip", 50_000, func(n int) error {
				sum, err := mp.Run(n)
				if err == nil && sum.Acks == 0 {
					err = fmt.Errorf("no acknowledgments built: %+v", sum)
				}
				return err
			}},
		},
	}
}

// policySweep is BENCH_policy.json, the metered policy VM. One op is one
// evaluation through the pooled dense-slot path under a fresh budget, the
// per-packet discipline of the netsim and wire choice points, for three
// shapes: a scalar predicate (the common forwarding gate), a folded
// constant list (ACL style) and a three-level nested boolean (composed
// stakeholder clauses).
func policySweep() sweep {
	shapes := []struct {
		id, src string
		count   int
	}{
		{"policy-scalar", `port == 443 || port == 80`, 5_000_000},
		{"policy-member", `port in [80, 443, 8080, 8443]`, 5_000_000},
		{"policy-nested", `((paid && port == 443) || (ttl > 4 && port == 80)) && (!blocked || paid)`, 2_000_000},
	}
	progs := make([]*policy.Program, len(shapes))
	slots := make([][]policy.Value, len(shapes))
	sw := sweep{flag: "policy-json", parallelism: 1,
		note: "policy sweep: single-goroutine per-eval figures through the pooled dense-slot VM path"}
	sw.open = func() (func(), error) {
		vals := map[string]policy.Value{
			"port": policy.Num(80), "ttl": policy.Num(12), "paid": policy.Bool(false), "blocked": policy.Bool(false),
		}
		for i, sh := range shapes {
			p, err := policy.CompileText(sh.src)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", sh.id, err)
			}
			for _, name := range p.Attrs() {
				v, ok := vals[name]
				if !ok {
					return nil, fmt.Errorf("%s: no bench value for attribute %q", sh.id, name)
				}
				slots[i] = append(slots[i], v)
			}
			progs[i] = p
		}
		return func() {}, nil
	}
	for i, sh := range shapes {
		sw.rows = append(sw.rows, row{sh.id, sh.count, func(n int) error {
			p, s := progs[i], slots[i]
			for range n {
				b := policy.NewBudget(4096, 4096)
				if _, err := p.RunSlots(s, &b); err != nil {
					return err
				}
			}
			return nil
		}})
	}
	return sw
}
