package multipath

import (
	"fmt"

	"repro/internal/routing/srcroute"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Strategy is a pluggable path-selection policy, following the
// axiomatization of multipath selection strategies in
// Baumeister/Keshvadi (arXiv:2509.05938): a strategy decides which
// routes to discover (the candidate axis: shortest vs most disjoint)
// and which live path carries each (re)transmission (the scheduling
// axis: rotation, latency weighting, loss adaptation). Strategies are
// stateful per-sender and single-threaded; every decision is a pure
// function of the deterministic path state, so transfers replay
// byte-identically.
type Strategy interface {
	// Name identifies the strategy in stats, experiment rows, and CLIs.
	Name() string
	// Discover selects the candidate path set from the topology map.
	Discover(g *topology.Graph, src, dst topology.NodeID, k, maxLen int) []srcroute.Candidate
	// Pick chooses the path for the next (re)transmission among the
	// currently eligible (Active) paths. eligible is never empty and is
	// ordered by path index.
	Pick(eligible []*Path) *Path
}

// Strategies returns fresh instances of every built-in striping
// strategy in canonical order (Routed, which stripes over nothing, is
// not one). Fresh: strategies carry scheduling state (rotation
// counters, weighting credit), so instances must not be shared across
// senders.
func Strategies() []Strategy {
	return []Strategy{
		&ShortestK{},
		&DisjointnessMax{},
		&LatencyWeighted{},
		&LossAdaptive{},
	}
}

// StrategyByName returns a fresh instance of the named strategy.
func StrategyByName(name string) (Strategy, error) {
	for _, s := range Strategies() {
		if s.Name() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("multipath: unknown strategy %q", name)
}

// Routed is the single-path strategy: its one candidate is the bare
// endpoint pair, which carries no source route, so every segment
// follows whatever path the network's own routing tussle produces. It
// is path selection's degenerate case, the baseline the end-to-end
// experiments (E21) and design for choice (E29) measure. It stays out
// of Strategies() because it makes no choice.
type Routed struct{}

// Name implements Strategy.
func (Routed) Name() string { return "routed" }

// Discover implements Strategy: the endpoints alone, whatever k asks.
func (Routed) Discover(g *topology.Graph, src, dst topology.NodeID, k, maxLen int) []srcroute.Candidate {
	return []srcroute.Candidate{{Path: []topology.NodeID{src, dst}}}
}

// Pick implements Strategy: the only path.
func (Routed) Pick(eligible []*Path) *Path { return eligible[0] }

// ShortestK stripes round-robin over the k latency-shortest candidate
// paths regardless of overlap — the throughput-first strategy. Shared
// links mean a single failure can take out several paths at once; that
// exposure is exactly what E29 measures against the disjoint strategies.
type ShortestK struct {
	rr int
}

// Name implements Strategy.
func (s *ShortestK) Name() string { return "shortest-k" }

// Discover implements Strategy: plain k-shortest enumeration, overlap
// allowed.
func (s *ShortestK) Discover(g *topology.Graph, src, dst topology.NodeID, k, maxLen int) []srcroute.Candidate {
	return srcroute.Discover(g, src, dst, k, maxLen)
}

// Pick implements Strategy: pure rotation.
func (s *ShortestK) Pick(eligible []*Path) *Path {
	s.rr++
	return eligible[s.rr%len(eligible)]
}

// DisjointnessMax stripes round-robin over the maximal link-disjoint
// path set — the availability-first strategy: no single link failure
// can take down more than one path.
type DisjointnessMax struct {
	rr int
}

// Name implements Strategy.
func (s *DisjointnessMax) Name() string { return "disjointness-max" }

// Discover implements Strategy: take every disjoint path that exists,
// not just k (the requested k only floors the search effort).
func (s *DisjointnessMax) Discover(g *topology.Graph, src, dst topology.NodeID, k, maxLen int) []srcroute.Candidate {
	if k < 8 {
		k = 8
	}
	return srcroute.DisjointPaths(g, src, dst, k, maxLen)
}

// Pick implements Strategy: pure rotation.
func (s *DisjointnessMax) Pick(eligible []*Path) *Path {
	s.rr++
	return eligible[s.rr%len(eligible)]
}

// LatencyWeighted stripes over the disjoint set proportionally to
// inverse latency (measured SRTT once samples exist, advertised path
// latency until then) using smooth weighted round-robin, so fast paths
// carry proportionally more of the stream without starving slow ones.
type LatencyWeighted struct{}

// Name implements Strategy.
func (s *LatencyWeighted) Name() string { return "latency-weighted" }

// Discover implements Strategy.
func (s *LatencyWeighted) Discover(g *topology.Graph, src, dst topology.NodeID, k, maxLen int) []srcroute.Candidate {
	return srcroute.DisjointPaths(g, src, dst, k, maxLen)
}

// Pick implements Strategy: smooth WRR. Each eligible path accrues
// credit proportional to its inverse latency estimate; the path with
// the most credit transmits and pays the round's total back. Ties break
// to the lowest path index, so the schedule is deterministic.
func (s *LatencyWeighted) Pick(eligible []*Path) *Path {
	var total float64
	for _, p := range eligible {
		est := p.SRTT
		if est <= 0 {
			est = 2 * p.Cand.Latency // advertised one-way latency, out and back
		}
		if est <= 0 {
			est = sim.Millisecond
		}
		w := 1 / float64(est)
		p.wrrCredit += w
		total += w
	}
	best := eligible[0]
	for _, p := range eligible[1:] {
		if p.wrrCredit > best.wrrCredit {
			best = p
		}
	}
	best.wrrCredit -= total
	return best
}

// LossAdaptive routes each transmission over the eligible path with the
// lowest loss estimate (EWMA of timeout/delivery outcomes), rotating
// among paths whose estimates are effectively tied — clean paths behave
// like round-robin, impaired paths shed traffic in proportion to how
// lossy they look.
type LossAdaptive struct {
	rr int
}

// Name implements Strategy.
func (s *LossAdaptive) Name() string { return "loss-adaptive" }

// Discover implements Strategy.
func (s *LossAdaptive) Discover(g *topology.Graph, src, dst topology.NodeID, k, maxLen int) []srcroute.Candidate {
	return srcroute.DisjointPaths(g, src, dst, k, maxLen)
}

// Pick implements Strategy: rotate over the tied paths in index order,
// counting them instead of collecting them so a pick allocates nothing.
func (s *LossAdaptive) Pick(eligible []*Path) *Path {
	min := eligible[0].Loss
	for _, p := range eligible[1:] {
		if p.Loss < min {
			min = p.Loss
		}
	}
	const tie = 1e-9
	n := 0
	for _, p := range eligible {
		if p.Loss-min <= tie {
			n++
		}
	}
	s.rr++
	k := s.rr % n
	for _, p := range eligible {
		if p.Loss-min <= tie {
			if k == 0 {
				return p
			}
			k--
		}
	}
	panic("unreachable: the minimum-loss path is always tied")
}
