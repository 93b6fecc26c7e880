// Package sim provides the deterministic discrete-event simulation kernel
// that every other substrate in this repository is built on: a virtual
// clock, an event scheduler, and a seeded random number generator.
//
// All randomness in the repository flows through RNG so that every
// experiment is reproducible bit-for-bit from its seed.
package sim

import "math"

// RNG is a small, fast, deterministic random number generator based on
// splitmix64. It is not safe for concurrent use; each simulation owns one.
//
// The zero value is a valid generator seeded with 0; prefer NewRNG so the
// seed is explicit.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next value in the splitmix64 sequence.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn called with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation is overkill here;
	// simple modulo bias is negligible for n << 2^64 and keeps the
	// sequence stable across platforms.
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Range returns a uniformly distributed float64 in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Normal returns a normally distributed float64 via the Box–Muller
// transform.
func (r *RNG) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes a slice of length n using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Pick returns a uniformly chosen index weighted by weights. Weights must
// be non-negative; if they sum to zero the choice is uniform.
func (r *RNG) Pick(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return r.Intn(len(weights))
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Fork derives an independent generator from this one, for subsystems that
// need their own stream without perturbing the parent's sequence.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64())
}

// StreamFork derives an independent generator identified by stream from
// this one WITHOUT advancing the parent's sequence: the child's seed is a
// pure function of (parent state, stream). The sharded simulation core
// forks one stream per node (and per impaired link direction) this way,
// so every node's randomness is a function of the root seed and the node
// alone — never of how nodes are partitioned across shards — which keeps
// sharded runs byte-identical at any shard count.
func (r *RNG) StreamFork(stream uint64) *RNG {
	return NewRNG(SeedStream(r.state, stream))
}

// SeedStream mixes a base seed with a stream number into an independent
// seed, using one splitmix64 step over their combination. Deterministic
// and allocation-free; use it to derive per-entity seeds (per node, per
// shard, per link) from an experiment's root seed.
func SeedStream(base, stream uint64) uint64 {
	z := base + 0x9e3779b97f4a7c15*(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
