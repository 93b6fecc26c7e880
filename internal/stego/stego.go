// Package stego implements the escalation step §VI-A footnote 17 flags:
// "The next step in this sort of escalation is steganography — the
// hiding of information inside some other form of data. It is a signal
// of a coming tussle that this topic is receiving attention right now."
//
// Two covert channels are provided — payload padding and inter-packet
// timing — together with the detectors an inspecting middlebox would
// run. The package exposes the tradeoff that makes this a pure-conflict
// tussle: embedding capacity against detectability, with the decisive
// role played by the *cover distribution* (hiding in all-zero padding is
// trivially detectable; hiding in already-random padding is
// information-theoretically invisible).
package stego

import (
	"math"

	"repro/internal/sim"
)

// CoverKind describes the innocent traffic the channel hides in.
type CoverKind uint8

// Cover kinds.
const (
	// ZeroPadding: innocent packets pad with zero bytes (most real
	// protocols). Any entropy in the padding is anomalous.
	ZeroPadding CoverKind = iota
	// RandomPadding: innocent packets already pad with random bytes
	// (e.g. encrypted protocols). Embedded ciphertext is
	// indistinguishable.
	RandomPadding
)

// MakeCover generates n innocent padding fields of the given length.
func MakeCover(kind CoverKind, n, padLen int, rng *sim.RNG) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		p := make([]byte, padLen)
		if kind == RandomPadding {
			for j := range p {
				p[j] = byte(rng.Uint64())
			}
		}
		out[i] = p
	}
	return out
}

// EmbedPadding hides msg in the padding fields, one byte of message per
// padding field starting at offset 0, cycling. Real embedders encrypt
// first; pass pre-whitened bytes to model that. It returns the number of
// fields used.
func EmbedPadding(paddings [][]byte, msg []byte) int {
	used := 0
	for i := 0; i < len(msg) && i < len(paddings); i++ {
		if len(paddings[i]) == 0 {
			continue
		}
		paddings[i][0] = msg[i]
		used++
	}
	return used
}

// PaddingDetector scores a traffic sample's padding entropy against the
// expected cover distribution and reports a suspicion in [0, 1].
type PaddingDetector struct {
	Expected CoverKind
}

// Suspicion estimates how anomalous the sample is. For ZeroPadding
// covers it is the fraction of nonzero first-padding bytes; for
// RandomPadding covers it measures deviation from uniformity (which
// whitened stego does not create, so suspicion stays near zero).
func (d PaddingDetector) Suspicion(paddings [][]byte) float64 {
	if len(paddings) == 0 {
		return 0
	}
	switch d.Expected {
	case ZeroPadding:
		nonzero := 0
		total := 0
		for _, p := range paddings {
			if len(p) == 0 {
				continue
			}
			total++
			if p[0] != 0 {
				nonzero++
			}
		}
		if total == 0 {
			return 0
		}
		return float64(nonzero) / float64(total)
	default:
		// Chi-square-style uniformity deviation over first bytes,
		// normalized to [0, 1].
		var counts [256]int
		total := 0
		for _, p := range paddings {
			if len(p) == 0 {
				continue
			}
			counts[p[0]]++
			total++
		}
		if total == 0 {
			return 0
		}
		expected := float64(total) / 256
		var chi float64
		for _, c := range counts {
			d := float64(c) - expected
			chi += d * d / math.Max(expected, 1e-9)
		}
		// Normalize: under uniformity chi ≈ 255; scale deviations.
		norm := (chi - 255) / (255 * 4)
		if norm < 0 {
			norm = 0
		}
		if norm > 1 {
			norm = 1
		}
		return norm
	}
}

// TimingChannel embeds bits in inter-packet gaps: bit 0 sends at Base,
// bit 1 at Base+Delta, and the network adds jitter.
type TimingChannel struct {
	Base, Delta sim.Time
}

// EmbedTiming produces the gap sequence for bits, with Gaussian jitter
// of the given standard deviation.
func (c TimingChannel) EmbedTiming(bits []int, jitter sim.Time, rng *sim.RNG) []sim.Time {
	out := make([]sim.Time, len(bits))
	for i, b := range bits {
		gap := c.Base
		if b != 0 {
			gap += c.Delta
		}
		gap += sim.Time(rng.Normal(0, float64(jitter)))
		if gap < 0 {
			gap = 0
		}
		out[i] = gap
	}
	return out
}

// ExtractTiming decodes gaps back to bits by thresholding at
// Base+Delta/2.
func (c TimingChannel) ExtractTiming(gaps []sim.Time) []int {
	threshold := c.Base + c.Delta/2
	out := make([]int, len(gaps))
	for i, g := range gaps {
		if g >= threshold {
			out[i] = 1
		}
	}
	return out
}

// BitErrorRate compares sent and received bits.
func BitErrorRate(sent, got []int) float64 {
	if len(sent) == 0 {
		return 0
	}
	n := len(sent)
	if len(got) < n {
		n = len(got)
	}
	errs := len(sent) - n // missing bits count as errors
	for i := 0; i < n; i++ {
		if sent[i] != got[i] {
			errs++
		}
	}
	return float64(errs) / float64(len(sent))
}

// TimingDetector scores gap bimodality: covert timing channels create
// two clusters where innocent traffic has one.
type TimingDetector struct{}

// Suspicion returns 1 - (within-cluster variance / total variance) for
// the best 2-means split — near 1 for a clean two-mode channel, near 0
// for unimodal innocent jitter.
func (TimingDetector) Suspicion(gaps []sim.Time) float64 {
	if len(gaps) < 4 {
		return 0
	}
	xs := make([]float64, len(gaps))
	var mean float64
	for i, g := range gaps {
		xs[i] = float64(g)
		mean += xs[i]
	}
	mean /= float64(len(xs))
	var totalVar float64
	for _, x := range xs {
		totalVar += (x - mean) * (x - mean)
	}
	if totalVar == 0 {
		return 0
	}
	// 2-means with threshold search over the sorted midpoints (exact
	// for 1-D).
	best := totalVar
	for iter := 0; iter < 32; iter++ {
		// Threshold sweep over quantiles of the range.
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		th := lo + (hi-lo)*float64(iter+1)/33
		var s1, s2, n1, n2 float64
		for _, x := range xs {
			if x < th {
				s1 += x
				n1++
			} else {
				s2 += x
				n2++
			}
		}
		if n1 == 0 || n2 == 0 {
			continue
		}
		m1, m2 := s1/n1, s2/n2
		var within float64
		for _, x := range xs {
			if x < th {
				within += (x - m1) * (x - m1)
			} else {
				within += (x - m2) * (x - m2)
			}
		}
		if within < best {
			best = within
		}
	}
	return 1 - best/totalVar
}

// InspectionGame builds the classic inspector-vs-evader game §II-B's
// taxonomy predicts for this tussle. The evader chooses {comply, embed};
// the inspector chooses {inspect, pass}. Embedding pays gain when not
// inspected and costs penalty when caught; inspection itself costs the
// inspector inspectCost (deep analysis of every flow is expensive), a
// cost the evader banks in zero-sum terms. The game has no pure
// equilibrium — the tussle cycles through mixed strategies, the "no
// final outcome" condition.
//
// Rows (evader): 0 = comply, 1 = embed. Columns (inspector):
// 0 = inspect, 1 = pass. Entries are the evader's payoff.
func InspectionGame(gain, penalty, inspectCost float64) [][]float64 {
	return [][]float64{
		{inspectCost, 0}, // comply: inspection was wasted / nothing happens
		{-penalty, gain}, // embed: caught / exfiltrated
	}
}
