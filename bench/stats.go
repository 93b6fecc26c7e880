package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), the definition Python's statistics.median uses. It
// returns NaN for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, NaN for an empty slice.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartiles of xs by the method
// Python's statistics.quantiles(xs, n=4) uses by default ("exclusive"):
// the cut points sit at ranks i·(n+1)/4, interpolated linearly and clamped
// to the sample. The benchmark's own calibration and any outside check
// therefore compute the same spread from the same values. A single value
// is its own quartiles; an empty slice gives NaN.
func quartiles(xs []float64) (q1, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0]
	}
	s := sorted(xs)
	cut := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// spread is the interquartile range as a share of the median: the
// run-to-run noise figure every end-to-end bound is checked against.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// rank is the 1-based nearest rank of the p-th percentile among n
// samples. The tolerance keeps p = 99.99 of 100000 at rank 99990 despite
// 99.99 having no exact binary form.
func rank(p float64, n int) int {
	return max(1, int(math.Ceil(p/100*float64(n)-1e-9)))
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending slice: the smallest value with at least p% of the samples at
// or below it.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	return asc[rank(p, len(asc))-1]
}

// tailPercentiles are the candidate tail cut points, lowest first.
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// tail is the highest percentile a sample supports.
type tail struct {
	P      float64 // the percentile
	Value  float64 // its value (+Inf when lost operations reach it)
	Beyond int     // samples strictly above its rank
	N      int     // sample count
}

// highestTail picks the highest candidate percentile that still has at
// least ten samples beyond it, so a reported tail always rests on ten
// observations rather than one outlier. ok is false when the sample is too
// small for even the median to qualify (fewer than 20 samples).
func highestTail(xs []float64) (t tail, ok bool) {
	s := sorted(xs)
	for _, p := range tailPercentiles {
		r := rank(p, len(s))
		beyond := len(s) - r
		if beyond < 10 {
			break
		}
		t, ok = tail{P: p, Value: s[r-1], Beyond: beyond, N: len(s)}, true
	}
	return t, ok
}

// withLost appends one +Inf sample per lost operation: an operation that
// never completed missed every latency limit, so it must weigh on the
// percentiles rather than vanish from them.
func withLost(samples []float64, lost int) []float64 {
	out := make([]float64, len(samples), len(samples)+lost)
	copy(out, samples)
	for i := 0; i < lost; i++ {
		out = append(out, math.Inf(1))
	}
	return out
}

// lateness returns, per scheduled send, how far behind its due time the
// open-loop generator actually sent it (ns; never negative — an early
// send counts as on time). Latencies in an open loop are measured from
// the due time, so a generator stall shows up as latency of every request
// it delayed; lateness says how much of that was the generator's own.
func lateness(due, sent []int64) []float64 {
	out := make([]float64, len(due))
	for i := range due {
		if d := sent[i] - due[i]; d > 0 {
			out[i] = float64(d)
		}
	}
	return out
}

// intervalRates converts per-interval completion counts into rates per
// second. Only whole intervals are passed in: the caller drops the
// partial interval at the end of a phase.
func intervalRates(counts []int, widthNs int64) []float64 {
	out := make([]float64, len(counts))
	for i, c := range counts {
		out[i] = float64(c) * 1e9 / float64(widthNs)
	}
	return out
}

// quantileNote summarises a run's per-iteration samples for the notes:
// count, minimum, quartiles and maximum.
func quantileNote(xs []float64) string {
	if len(xs) == 0 {
		return "n=0"
	}
	s := sorted(xs)
	q1, q3 := quartiles(s)
	return fmt.Sprintf("n=%d min %.4g q1 %.4g median %.4g q3 %.4g max %.4g", len(s), s[0], q1, median(s), q3, s[len(s)-1])
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return s
}
