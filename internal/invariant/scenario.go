package invariant

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Traffic is one generated datagram: a raw packet of Size payload bytes
// injected at Src toward Dst at AtMs milliseconds of simulated time.
type Traffic struct {
	AtMs float64         `json:"at_ms"`
	Src  topology.NodeID `json:"src"`
	Dst  topology.NodeID `json:"dst"`
	Size int             `json:"size"`
}

// TransferSpec is an optional reliable transfer riding the scenario: a
// transport-layer stream from Src to Dst, exercising retransmission and
// give-up behavior under the fault plan.
type TransferSpec struct {
	Src   topology.NodeID `json:"src"`
	Dst   topology.NodeID `json:"dst"`
	Bytes int             `json:"bytes"`
	// Multipath, when ≥ 2, stripes the transfer over that many
	// requested source routes (strategy derived deterministically from
	// the value); 0 sends it over one network-routed path. omitempty
	// keeps old reproducers parseable.
	Multipath int `json:"multipath,omitempty"`
}

// Scenario is one fully-specified property-based trial: a topology (by
// generation seed and parameters), a traffic matrix, an optional
// transfer, and a chaos fault plan with a restoration tail. Everything
// is derived from Seed by Generate, but the struct carries the expansion
// explicitly so a shrunk scenario (whose plan and traffic no longer
// match the seed) stays replayable and serializable as the reproducer.
type Scenario struct {
	Seed uint64 `json:"seed"`

	// Topology generation parameters; Graph() re-derives the graph.
	TopoSeed      uint64  `json:"topo_seed"`
	Tier1         int     `json:"tier1"`
	Tier2         int     `json:"tier2"`
	Stubs         int     `json:"stubs"`
	MultihomeProb float64 `json:"multihome_prob"`
	PeerProb      float64 `json:"peer_prob"`

	Traffic  []Traffic     `json:"traffic"`
	Transfer *TransferSpec `json:"transfer,omitempty"`
	Plan     *chaos.Plan   `json:"plan"`

	// ProbeAtMs is when heal-reachability probes are injected: after the
	// plan's restoration tail plus a reconvergence margin.
	ProbeAtMs float64 `json:"probe_at_ms"`
}

// Generation envelope: faults land in [faultFromMs, faultToMs], traffic
// in [0, faultToMs+20], the restoration tail starts at restoreStartMs
// (after the longest possible flap sequence has finished toggling), and
// probes go out probeMarginMs after the last plan event.
const (
	faultFromMs    = 5.0
	faultToMs      = 95.0
	restoreStartMs = 140.0
	probeMarginMs  = 20.0
)

// Graph re-derives the scenario's topology. Deterministic: the same
// TopoSeed and parameters always yield the identical graph.
func (sc *Scenario) Graph() *topology.Graph {
	cfg := topology.HierarchyConfig{
		Tier1:         sc.Tier1,
		Tier2:         sc.Tier2,
		Stubs:         sc.Stubs,
		MultihomeProb: sc.MultihomeProb,
		PeerProb:      sc.PeerProb,
		BaseLatency:   5 * sim.Millisecond,
	}
	return topology.GenerateHierarchy(cfg, sim.NewRNG(sc.TopoSeed))
}

// Validate checks a scenario (typically a parsed reproducer) for
// structural sanity: generation parameters in range, traffic endpoints
// and plan references resolvable against the derived topology.
func (sc *Scenario) Validate() error {
	if sc.Tier1 < 1 || sc.Tier1 > 8 || sc.Tier2 < 0 || sc.Tier2 > 32 || sc.Stubs < 0 || sc.Stubs > 64 {
		return fmt.Errorf("invariant: topology parameters out of range (tier1=%d tier2=%d stubs=%d)", sc.Tier1, sc.Tier2, sc.Stubs)
	}
	if sc.Plan == nil {
		return fmt.Errorf("invariant: scenario has no plan")
	}
	if err := sc.Plan.Validate(); err != nil {
		return err
	}
	g := sc.Graph()
	for i, tr := range sc.Traffic {
		if _, ok := g.Nodes[tr.Src]; !ok {
			return fmt.Errorf("invariant: traffic %d src %d not in topology", i, tr.Src)
		}
		if _, ok := g.Nodes[tr.Dst]; !ok {
			return fmt.Errorf("invariant: traffic %d dst %d not in topology", i, tr.Dst)
		}
		if tr.Size < 0 || tr.Size > 1<<16 {
			return fmt.Errorf("invariant: traffic %d size %d out of range", i, tr.Size)
		}
		if tr.AtMs < 0 {
			return fmt.Errorf("invariant: traffic %d at_ms %v negative", i, tr.AtMs)
		}
	}
	if sc.Transfer != nil {
		if _, ok := g.Nodes[sc.Transfer.Src]; !ok {
			return fmt.Errorf("invariant: transfer src %d not in topology", sc.Transfer.Src)
		}
		if _, ok := g.Nodes[sc.Transfer.Dst]; !ok {
			return fmt.Errorf("invariant: transfer dst %d not in topology", sc.Transfer.Dst)
		}
		if sc.Transfer.Bytes < 1 || sc.Transfer.Bytes > 1<<20 {
			return fmt.Errorf("invariant: transfer bytes %d out of range", sc.Transfer.Bytes)
		}
		if mp := sc.Transfer.Multipath; mp != 0 && (mp < 2 || mp > 8) {
			return fmt.Errorf("invariant: transfer multipath %d out of range", mp)
		}
	}
	return nil
}

// Generate expands a seed into a full scenario: a random three-tier
// topology, 20–80 datagrams between random stubs, an optional reliable
// transfer, and a 2–12 event fault plan drawn from the real topology —
// followed by a restoration tail (heals, link-ups, recoveries,
// impairment clears) that returns the network to full health before the
// reachability probes fire. Pure function of the seed.
func Generate(seed uint64) *Scenario {
	rng := sim.NewRNG(seed ^ 0x1a4a17)
	sc := &Scenario{
		Seed:          seed,
		Tier1:         1 + rng.Intn(3),
		Tier2:         2 + rng.Intn(4),
		Stubs:         4 + rng.Intn(8),
		MultihomeProb: rng.Range(0.3, 0.8),
		PeerProb:      rng.Range(0.1, 0.5),
		TopoSeed:      rng.Uint64(),
	}
	g := sc.Graph()
	ids := g.NodeIDs()
	links := g.Links

	pickLink := func() topology.Link { return links[rng.Intn(len(links))] }
	pickNode := func() topology.NodeID { return ids[rng.Intn(len(ids))] }

	plan := &chaos.Plan{Name: fmt.Sprintf("sweep-%d", seed), Seed: rng.Uint64()}
	// Track what the plan breaks so the restoration tail can undo all of
	// it: flapped links may end in either phase, so they get a link-up
	// unconditionally.
	brokenLinks := map[[2]topology.NodeID]bool{}
	crashed := map[topology.NodeID]bool{}
	impaired := map[[2]topology.NodeID]bool{}
	partitions := 0

	linkKey := func(a, b topology.NodeID) [2]topology.NodeID {
		if a > b {
			a, b = b, a
		}
		return [2]topology.NodeID{a, b}
	}

	nev := 2 + rng.Intn(11)
	kindWeights := []float64{3, 1, 2, 2, 1, 2, 1, 2, 1, 1}
	kinds := []chaos.Kind{
		chaos.LinkDown, chaos.LinkUp, chaos.LinkFlap,
		chaos.NodeCrash, chaos.NodeRecover,
		chaos.Partition, chaos.Heal,
		chaos.Impair, chaos.ClearImpair,
		chaos.ByzantineBurst,
	}
	for i := 0; i < nev; i++ {
		ev := chaos.Event{AtMs: rng.Range(faultFromMs, faultToMs)}
		ev.Kind = kinds[rng.Pick(kindWeights)]
		switch ev.Kind {
		case chaos.LinkDown, chaos.LinkUp:
			l := pickLink()
			ev.A, ev.B = l.A, l.B
			if ev.Kind == chaos.LinkDown {
				brokenLinks[linkKey(l.A, l.B)] = true
			}
		case chaos.LinkFlap:
			l := pickLink()
			ev.A, ev.B = l.A, l.B
			ev.PeriodMs = rng.Range(1, 5)
			ev.Count = 2 + rng.Intn(4)
			brokenLinks[linkKey(l.A, l.B)] = true
		case chaos.NodeCrash:
			ev.Node = pickNode()
			crashed[ev.Node] = true
		case chaos.NodeRecover:
			ev.Node = pickNode()
		case chaos.Partition:
			k := 1 + rng.Intn(1+len(ids)/3)
			perm := rng.Perm(len(ids))
			for _, p := range perm[:k] {
				ev.Group = append(ev.Group, ids[p])
			}
			partitions++
		case chaos.Heal:
			// no fields
		case chaos.Impair:
			l := pickLink()
			ev.A, ev.B = l.A, l.B
			ev.Corrupt = rng.Range(0.05, 0.35)
			if rng.Bool(0.5) {
				ev.Duplicate = rng.Range(0.05, 0.25)
			}
			if rng.Bool(0.3) {
				ev.ReorderProb = rng.Range(0.05, 0.25)
				ev.ReorderJitterMs = rng.Range(1, 5)
			}
			impaired[linkKey(l.A, l.B)] = true
		case chaos.ClearImpair:
			l := pickLink()
			ev.A, ev.B = l.A, l.B
		case chaos.ByzantineBurst:
			ev.Node = pickNode()
			ev.Count = 1 + rng.Intn(3)
			ev.Cost = rng.Range(0.01, 0.5)
			if rng.Bool(0.5) {
				for {
					p := pickNode()
					if p != ev.Node {
						ev.Phantoms = []topology.NodeID{p}
						break
					}
				}
			}
		}
		plan.Events = append(plan.Events, ev)
	}

	// Restoration tail: undo every partition (heals nest like a stack),
	// then every broken link, crashed node, and lingering impairment, so
	// ground truth is fully healed before probes. Iteration over the
	// bookkeeping maps goes through the deterministic orderings below.
	tail := restoreStartMs
	for i := 0; i < partitions; i++ {
		plan.Events = append(plan.Events, chaos.Event{AtMs: tail, Kind: chaos.Heal})
		tail++
	}
	for _, l := range links {
		if brokenLinks[linkKey(l.A, l.B)] {
			plan.Events = append(plan.Events, chaos.Event{AtMs: tail, Kind: chaos.LinkUp, A: l.A, B: l.B})
			tail++
		}
	}
	for _, id := range ids {
		if crashed[id] {
			plan.Events = append(plan.Events, chaos.Event{AtMs: tail, Kind: chaos.NodeRecover, Node: id})
			tail++
		}
	}
	for _, l := range links {
		if impaired[linkKey(l.A, l.B)] {
			plan.Events = append(plan.Events, chaos.Event{AtMs: tail, Kind: chaos.ClearImpair, A: l.A, B: l.B})
			tail++
		}
	}
	sc.Plan = plan
	sc.ProbeAtMs = tail + probeMarginMs

	// Traffic matrix: datagrams between random distinct stubs (any two
	// distinct nodes if the topology is too small), overlapping the fault
	// window and spilling slightly past it.
	endpoints := g.Stubs()
	if len(endpoints) < 2 {
		endpoints = ids
	}
	ntr := 20 + rng.Intn(61)
	for i := 0; i < ntr; i++ {
		src := endpoints[rng.Intn(len(endpoints))]
		dst := endpoints[rng.Intn(len(endpoints))]
		for dst == src {
			dst = endpoints[rng.Intn(len(endpoints))]
		}
		sc.Traffic = append(sc.Traffic, Traffic{
			AtMs: rng.Range(0, faultToMs+20),
			Src:  src,
			Dst:  dst,
			Size: 64 + rng.Intn(1200),
		})
	}

	if rng.Bool(0.3) && len(endpoints) >= 2 {
		src := endpoints[rng.Intn(len(endpoints))]
		dst := endpoints[rng.Intn(len(endpoints))]
		for dst == src {
			dst = endpoints[rng.Intn(len(endpoints))]
		}
		sc.Transfer = &TransferSpec{Src: src, Dst: dst, Bytes: 1024 + rng.Intn(4096)}
	}
	// Drawn after everything else so scenarios generated by older seeds
	// are unchanged: some transfers ride the multipath sender, cycling
	// through its strategies (value mod strategy count picks one).
	if sc.Transfer != nil && rng.Bool(0.35) {
		sc.Transfer.Multipath = 2 + rng.Intn(4)
	}
	return sc
}
