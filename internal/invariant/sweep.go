package invariant

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/chaos"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/routing/linkstate"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport/multipath"
)

func msToTime(ms float64) sim.Time { return sim.Time(ms * float64(sim.Millisecond)) }

// hooks are the canary seams: deliberate-sabotage points the
// mutate-and-detect tests use to break each invariant and prove the
// checker reports it. Every hook re-applies on every run of a scenario,
// so shrinking a sabotaged trial replays the sabotage on each candidate.
// All nil in production sweeps.
type hooks struct {
	// wrapSink interposes on the checker's event stream (drop events,
	// forge values, regress timestamps).
	wrapSink func(obs.Sink) obs.Sink
	// postPlan runs at probe time, after the restoration tail and before
	// probes are injected (sabotage routing just-in-time).
	postPlan func(net *netsim.Network)
	// mutateTrace tampers with each completed traffic trace before it is
	// checked.
	mutateTrace func(tr *netsim.Trace)
	// beforeFinish runs after the scheduler drains, before route walks
	// and conservation close-out.
	beforeFinish func(net *netsim.Network, c *Checker)
	// corruptStream interposes on the transfer receiver's in-order
	// stream (one path or striped) on its way to the prefix check.
	corruptStream func(io.Writer) io.Writer
	// mutateSnap tampers with one side of the merge-commutativity
	// comparison.
	mutateSnap func(s *obs.Snapshot)
}

// trialResult is one scenario execution's outcome.
type trialResult struct {
	violations []Violation
	reg        *obs.Registry
}

// RunScenario executes one scenario with the given invariant set armed
// (nil arms all) and returns any violations.
func RunScenario(sc *Scenario, enabled map[string]bool) []Violation {
	return runScenario(sc, enabled, nil).violations
}

// runScenario builds the full stack for one trial — network, routing
// substrate, chaos engine, checker — runs it to completion, and applies
// the post-run checks. The routing substrate is chosen by the plan: a
// plan with byzantine bursts needs the advertisement database (signed,
// two-sided attestation) so the burst has something to poison; plans
// without get the cheaper ground-truth link-state database.
func runScenario(sc *Scenario, enabled map[string]bool, hk *hooks) *trialResult {
	if hk == nil {
		hk = &hooks{}
	}
	if enabled == nil {
		enabled = AllSet()
	}
	g := sc.Graph()
	sched := sim.NewScheduler()
	net := netsim.New(sched, g)
	reg := obs.NewRegistry()
	sched.AttachObs(reg)

	checker := NewChecker(net, enabled)
	var sink obs.Sink = checker
	if hk.wrapSink != nil {
		sink = hk.wrapSink(checker)
	}
	net.AttachObs(reg, obs.NewTracer(sink))

	eng := chaos.New(net, sc.Seed)
	needAdDB := false
	for i := range sc.Plan.Events {
		if sc.Plan.Events[i].Kind == chaos.ByzantineBurst {
			needAdDB = true
			break
		}
	}
	var rr *chaos.Rerouter
	if needAdDB {
		keys := linkstate.GenerateKeys(g, sim.NewRNG(sc.TopoSeed^0x5eed))
		db := linkstate.NewAdDatabase(g, linkstate.SignedTwoSided, keys)
		db.AttachObs(reg)
		rr = chaos.NewAdRerouter(net, db, keys, true)
		eng.AdDB = db
		eng.Keys = keys
	} else {
		db := linkstate.NewDatabase(g)
		db.AttachObs(reg)
		rr = chaos.NewLinkStateRerouter(net, db, true)
	}
	rr.AttachObs(reg)
	eng.Observe(rr)
	if err := rr.Converge(); err != nil {
		return &trialResult{reg: reg, violations: []Violation{{
			Invariant: "harness", Detail: fmt.Sprintf("initial routing failed to converge: %v", err),
		}}}
	}
	eng.AttachObs(reg)
	eng.Observe(checker)
	if err := eng.Schedule(sc.Plan); err != nil {
		// Generated and shrunk plans only reference real topology
		// elements, so this is a harness bug — surface it loudly as a
		// violation rather than silently skipping the trial.
		return &trialResult{reg: reg, violations: []Violation{{
			Invariant: "harness", Detail: fmt.Sprintf("plan failed to schedule: %v", err),
		}}}
	}
	checker.BeginEpoch()

	// Traffic matrix.
	traces := make([]*netsim.Trace, len(sc.Traffic))
	ttls := make([]int, len(sc.Traffic))
	for i := range sc.Traffic {
		i := i
		tr := sc.Traffic[i]
		data, err := packet.Serialize(
			&packet.TIP{TTL: 32, Proto: packet.LayerTypeRaw,
				Src: packet.MakeAddr(uint16(tr.Src), 1), Dst: packet.MakeAddr(uint16(tr.Dst), 1)},
			&packet.Raw{Data: make([]byte, tr.Size)})
		if err != nil {
			continue
		}
		ttls[i] = 32
		sched.At(msToTime(tr.AtMs), func() { traces[i] = net.Send(tr.Src, data) })
	}

	// Optional reliable transfer — one network-routed path, or the
	// multipath sender striping when the spec asks for it (the
	// stream-prefix invariant below holds for both, interleaved paths
	// included).
	var xferState func() (done, failed bool)
	var rcv *multipath.Receiver
	var stream *multipath.PrefixCheck
	var sent []byte
	if sp := sc.Transfer; sp != nil {
		sent = make([]byte, sp.Bytes)
		for i := range sent {
			sent[i] = byte(i*7 + 13)
		}
		var strat multipath.Strategy = multipath.Routed{}
		if sp.Multipath >= 2 {
			// Source-route forwarding is the multipath data plane; the
			// sweep grants it everywhere, leaving the rerouter tables as
			// the fallback (and the ACK return path on direct links).
			for _, id := range net.Graph.NodeIDs() {
				net.Node(id).HonorSourceRoutes = true
			}
			strats := multipath.Strategies()
			strat = strats[sp.Multipath%len(strats)]
		}
		rcv = multipath.InstallReceiver(net, sp.Dst, 7777)
		stream = &multipath.PrefixCheck{Want: sent}
		rcv.Out = stream
		if hk.corruptStream != nil {
			rcv.Out = hk.corruptStream(stream)
		}
		cfg := multipath.Config{
			Paths: sp.Multipath, MaxPathLen: 8,
			Window: 4, SegmentSize: 256,
			RTO: 20 * sim.Millisecond, MaxRetries: 8,
			Backoff: 2, MaxRTO: 200 * sim.Millisecond,
			JitterFrac: 0.1, Seed: sc.Seed,
			DemoteAfter: 2, ProbeEvery: 50 * sim.Millisecond, MaxProbes: 6,
		}
		snd := multipath.NewSender(net, strat, sp.Src, sp.Dst, 7777, sent, cfg)
		sched.At(1*sim.Millisecond, snd.Start)
		xferState = func() (bool, bool) { return snd.Done(), snd.Failed() }
	}

	// Heal-reachability probes: fired after the restoration tail plus a
	// reconvergence margin. Expectations are gated on ground truth at
	// probe time — if shrinking stripped the restoration tail, pairs
	// separated by a still-broken topology are simply not expected to
	// connect — and suppressed entirely while any impairment is active
	// (a corrupting link can legitimately eat a probe).
	type probeRec struct {
		tr       *netsim.Trace
		src, dst topology.NodeID
		expect   bool
	}
	var probes []*probeRec
	probeAt := msToTime(sc.ProbeAtMs)
	if enabled[Reach] || hk.postPlan != nil {
		sched.At(probeAt, func() {
			if hk.postPlan != nil {
				hk.postPlan(net)
			}
			if !enabled[Reach] {
				return
			}
			comp := Components(net)
			impaired := net.ImpairedLinks() > 0
			endpoints := g.Stubs()
			if len(endpoints) < 2 {
				endpoints = g.NodeIDs()
			}
			prng := sim.NewRNG(sc.Seed ^ 0x9b0be5)
			for k := 0; k < 20; k++ {
				src := endpoints[prng.Intn(len(endpoints))]
				dst := endpoints[prng.Intn(len(endpoints))]
				if src == dst {
					continue
				}
				data, err := packet.Serialize(
					&packet.TIP{TTL: 64, Proto: packet.LayerTypeRaw,
						Src: packet.MakeAddr(uint16(src), 1), Dst: packet.MakeAddr(uint16(dst), 1)},
					&packet.Raw{Data: []byte("reach-probe")})
				if err != nil {
					continue
				}
				expect := !impaired && comp[src] >= 0 && comp[src] == comp[dst]
				probes = append(probes, &probeRec{tr: net.Send(src, data), src: src, dst: dst, expect: expect})
			}
		})
	}

	sched.Run()

	// Post-run: per-packet trace validation.
	for i, tr := range traces {
		if tr == nil {
			continue
		}
		if hk.mutateTrace != nil {
			hk.mutateTrace(tr)
		}
		checker.CheckTrace(tr, ttls[i])
	}
	for _, p := range probes {
		checker.CheckTrace(p.tr, 64)
		if p.expect && !p.tr.Delivered {
			checker.Report(Reach, fmt.Sprintf("heal did not restore reachability: probe %d->%d dropped (%q at node %d) though ground truth connects them",
				p.src, p.dst, p.tr.DropReason, p.tr.DropNode), int64(p.tr.DoneAt))
		}
	}

	// Transport stream invariant (prefix + termination), identical for
	// one path and many: interleaved paths and duplicate-bearing probes
	// must still reassemble to an exact prefix.
	if xferState != nil && enabled[Transport] {
		done, failed := xferState()
		now := int64(sched.Now())
		if !done && !failed {
			checker.Report(Transport, "transfer neither completed nor failed after the scheduler drained", now)
		}
		if !stream.Prefix() {
			checker.Report(Transport, fmt.Sprintf("received stream (%d bytes) is not an in-order prefix of the sent stream (%d bytes)",
				rcv.Bytes, len(sent)), now)
		} else if done && rcv.Bytes != len(sent) {
			checker.Report(Transport, fmt.Sprintf("transfer reported done but receiver holds %d of %d bytes", rcv.Bytes, len(sent)), now)
		}
	}

	if hk.beforeFinish != nil {
		hk.beforeFinish(net, checker)
	}
	checker.CheckRoutes()
	checker.Finish()

	// Metrics-merge commutativity: merging the trial's registry with a
	// reference shard must be order-independent (the property the
	// parallel experiment runner's deterministic aggregates rest on).
	if enabled[MergeCommute] {
		ref := refShard()
		ab := obs.NewRegistry()
		ab.Merge(reg)
		ab.Merge(ref)
		ba := obs.NewRegistry()
		ba.Merge(ref)
		ba.Merge(reg)
		sa, sb := ab.Snapshot(), ba.Snapshot()
		if hk.mutateSnap != nil {
			hk.mutateSnap(sb)
		}
		ja, _ := json.Marshal(sa)
		jb, _ := json.Marshal(sb)
		if !bytes.Equal(ja, jb) {
			checker.Report(MergeCommute, "registry merge is not commutative: A+B and B+A snapshots differ", int64(sched.Now()))
		}
	}

	return &trialResult{violations: checker.Violations(), reg: reg}
}

// refShard builds the synthetic worker shard the merge-commutativity
// check merges against: it overlaps the trial's metric names (same
// histogram layouts) and adds names of its own, exercising both the
// merge-into-existing and adopt-new paths.
func refShard() *obs.Registry {
	r := obs.NewRegistry()
	r.Counter("netsim.sends").Add(3)
	r.Counter("invariant.ref").Add(1)
	r.Gauge("invariant.ref_gauge").Set(2.5)
	h := r.Histogram("netsim.packet_latency_ns", obs.TimeBucketsNs)
	h.Observe(5e5)
	h.Observe(2e9)
	return r
}

// Config parameterizes a sweep.
type Config struct {
	// Trials is how many seeded scenarios to run.
	Trials int
	// Seed salts every trial's scenario seed.
	Seed uint64
	// Invariants is the armed set (nil = all).
	Invariants map[string]bool
	// Shrink controls whether failures are minimized into reproducers.
	Shrink bool
	// MaxShrinkRuns caps candidate executions per shrink (0 = 400).
	MaxShrinkRuns int
	// MaxRepros caps how many failures are shrunk (0 = 3); later
	// failures are still recorded, unshrunk.
	MaxRepros int
	// ForceMultipath upgrades every generated transfer to the multipath
	// sender (path count derived from the trial seed), concentrating the
	// sweep on the striped data plane instead of the ~35% of transfers
	// that draw it naturally.
	ForceMultipath bool
}

// Failure is one failed trial.
type Failure struct {
	// Trial is the trial index, or -1 for sweep-level failures (the
	// cross-trial merge-commutativity check).
	Trial int `json:"trial"`
	// Seed replays the trial: Generate(Seed) reproduces the scenario.
	Seed       uint64      `json:"seed"`
	Violations []Violation `json:"violations"`
	// Repro is the shrunk minimal reproducer, when shrinking ran.
	Repro *Repro `json:"repro,omitempty"`
}

// Result summarizes a sweep.
type Result struct {
	Trials   int        `json:"trials"`
	Failures []*Failure `json:"failures,omitempty"`
}

// Clean reports whether every trial passed.
func (r *Result) Clean() bool { return len(r.Failures) == 0 }

// trialSeed derives trial i's scenario seed from the sweep seed
// (splitmix64 finalizer: consecutive trials get decorrelated streams).
func trialSeed(base uint64, i int) uint64 {
	z := base + 0x9e3779b97f4a7c15*uint64(i+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Sweep generates and runs cfg.Trials seeded scenarios with the armed
// invariants checked, shrinking failures into minimal reproducers. As a
// final cross-trial check it verifies that merging every trial's metric
// shard forward and in reverse yields identical aggregates — the
// many-shard version of the per-trial merge-commute invariant.
func Sweep(cfg Config) *Result {
	if cfg.Trials <= 0 {
		cfg.Trials = 1
	}
	if cfg.MaxShrinkRuns <= 0 {
		cfg.MaxShrinkRuns = 400
	}
	if cfg.MaxRepros <= 0 {
		cfg.MaxRepros = 3
	}
	enabled := cfg.Invariants
	if enabled == nil {
		enabled = AllSet()
	}
	res := &Result{Trials: cfg.Trials}
	var regs []*obs.Registry
	shrunk := 0
	for i := 0; i < cfg.Trials; i++ {
		seed := trialSeed(cfg.Seed, i)
		sc := Generate(seed)
		if cfg.ForceMultipath && sc.Transfer != nil && sc.Transfer.Multipath == 0 {
			sc.Transfer.Multipath = 2 + int(seed%4)
		}
		tr := runScenario(sc, enabled, nil)
		regs = append(regs, tr.reg)
		if len(tr.violations) == 0 {
			continue
		}
		f := &Failure{Trial: i, Seed: seed, Violations: tr.violations}
		if cfg.Shrink && shrunk < cfg.MaxRepros {
			f.Repro = ShrinkScenario(sc, enabled, tr.violations[0].Invariant, nil, cfg.MaxShrinkRuns)
			shrunk++
		}
		res.Failures = append(res.Failures, f)
	}
	if enabled[MergeCommute] && len(regs) > 1 {
		fwd := obs.NewRegistry()
		for _, r := range regs {
			fwd.Merge(r)
		}
		rev := obs.NewRegistry()
		for i := len(regs) - 1; i >= 0; i-- {
			rev.Merge(regs[i])
		}
		jf, _ := json.Marshal(fwd.Snapshot())
		jr, _ := json.Marshal(rev.Snapshot())
		if !bytes.Equal(jf, jr) {
			res.Failures = append(res.Failures, &Failure{
				Trial: -1, Seed: cfg.Seed,
				Violations: []Violation{{Invariant: MergeCommute,
					Detail: fmt.Sprintf("merging %d trial shards forward vs reverse yields different aggregates", len(regs))}},
			})
		}
	}
	return res
}

// Repro is a minimal reproducer: the invariant that fired, its detail
// from the final shrunk run, and the shrunk scenario (canonical chaos
// plan JSON plus the seeds that regenerate everything else).
type Repro struct {
	Invariant string    `json:"invariant"`
	Detail    string    `json:"detail"`
	Scenario  *Scenario `json:"scenario"`
}

// Encode renders the reproducer as canonical indented JSON (a fixed
// point of ParseRepro∘Encode, like chaos plans).
func (r *Repro) Encode() ([]byte, error) {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("invariant: encode repro: %w", err)
	}
	return append(buf, '\n'), nil
}

// ParseRepro decodes and validates a reproducer. Strict: unknown fields
// are errors, and the embedded scenario must validate against its own
// derived topology.
func ParseRepro(data []byte) (*Repro, error) {
	var r Repro
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("invariant: parse repro: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("invariant: parse repro: trailing data")
	}
	if r.Scenario == nil {
		return nil, fmt.Errorf("invariant: repro has no scenario")
	}
	if err := r.Scenario.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// Replay re-runs a reproducer's scenario and returns the violations it
// triggers (deterministic: a valid reproducer fires every time).
func Replay(r *Repro, enabled map[string]bool) []Violation {
	return RunScenario(r.Scenario, enabled)
}
