package sim

import (
	"math"
	"sort"
)

// Series accumulates scalar observations and computes summary statistics.
// It is the workhorse for experiment metrics throughout the repository.
//
// Percentile is served from a sorted cache that is invalidated by Add and
// rebuilt at most once between Adds, so bursts of percentile calls cost
// one sort instead of one sort each. Max is maintained incrementally and
// never sorts at all.
type Series struct {
	vals []float64
	sum  float64
	max  float64

	// sorted caches the observations in ascending order; valid only when
	// dirty is false and the series is non-empty. The buffer is reused
	// across rebuilds.
	sorted []float64
	dirty  bool
}

// Add records one observation.
func (s *Series) Add(v float64) {
	if len(s.vals) == 0 || v > s.max {
		s.max = v
	}
	s.vals = append(s.vals, v)
	s.sum += v
	s.dirty = true
}

// Mean returns the arithmetic mean, or 0 for an empty series.
func (s *Series) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	return s.sum / float64(len(s.vals))
}

// Max returns the maximum observation. An empty series returns 0 — the
// same defined sentinel every other statistic uses — rather than -Inf,
// which poisons downstream arithmetic and cannot be serialized as JSON.
func (s *Series) Max() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	return s.max
}

// sortedVals returns the observations in ascending order, rebuilding the
// cache only if observations were added since the last rebuild. Callers
// must not mutate the returned slice.
func (s *Series) sortedVals() []float64 {
	if s.dirty {
		s.sorted = append(s.sorted[:0], s.vals...)
		sort.Float64s(s.sorted)
		s.dirty = false
	}
	return s.sorted
}

// Percentile returns the p-th percentile (0..100) using nearest-rank over
// the sorted cache. Returns 0 for an empty series.
func (s *Series) Percentile(p float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	sorted := s.sortedVals()
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// KeyCache interns prefix+suffix counter keys so hot paths can count
// parameterized events ("drop:<reason>", "blocked:<device>") without
// re-concatenating — and so re-allocating — the key string on every
// increment. Each distinct suffix allocates its composite key once; all
// later lookups return the cached string. A KeyCache is not safe for
// concurrent use; give each single-threaded simulation its own.
type KeyCache struct {
	prefix string
	keys   map[string]string
}

// NewKeyCache returns an interner for keys of the form prefix+suffix.
func NewKeyCache(prefix string) *KeyCache {
	return &KeyCache{prefix: prefix, keys: make(map[string]string)}
}

// Key returns the interned prefix+suffix string, building it on first use.
func (kc *KeyCache) Key(suffix string) string {
	if k, ok := kc.keys[suffix]; ok {
		return k
	}
	k := kc.prefix + suffix
	kc.keys[suffix] = k
	return k
}

// Counter is a simple named event counter map.
type Counter map[string]int

// Inc increments a named counter by one and returns the new value.
func (c Counter) Inc(name string) int {
	c[name]++
	return c[name]
}
