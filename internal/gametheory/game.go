// Package gametheory implements the formal model of tussle that §II-B of
// the paper describes: normal-form games ranging "from purely conflicting
// games (so called zero-sum games) ... to coordination games where actors
// have a common goal but fail to coordinate", solvers for their
// equilibria, adaptation dynamics (best response, fictitious play,
// replicator — the bounded-rationality extension the paper cites), and
// the Vickrey mechanism, one of those that "construct rules of a game
// that guaranteed tussle-free actor networks ... revolving around
// revealing truthful information".
package gametheory

import (
	"fmt"
	"math"
)

// Game is a two-player normal-form game. A[i][j] is the row player's
// payoff and B[i][j] the column player's when row plays i and column
// plays j.
type Game struct {
	Name string
	A, B [][]float64
}

// New validates and builds a game. It panics on ragged or empty
// matrices — game construction errors are programming bugs.
func New(name string, a, b [][]float64) *Game {
	if len(a) == 0 || len(a[0]) == 0 {
		panic("gametheory: empty payoff matrix")
	}
	if len(a) != len(b) {
		panic("gametheory: payoff matrices disagree on rows")
	}
	for i := range a {
		if len(a[i]) != len(a[0]) || len(b[i]) != len(a[0]) {
			panic("gametheory: ragged payoff matrix")
		}
	}
	return &Game{Name: name, A: a, B: b}
}

// ZeroSum builds a zero-sum game from the row player's payoffs.
func ZeroSum(name string, a [][]float64) *Game {
	b := make([][]float64, len(a))
	for i := range a {
		b[i] = make([]float64, len(a[i]))
		for j := range a[i] {
			b[i][j] = -a[i][j]
		}
	}
	return New(name, a, b)
}

// Rows and Cols report the strategy space sizes.
func (g *Game) Rows() int { return len(g.A) }
func (g *Game) Cols() int { return len(g.A[0]) }

// IsZeroSum reports whether payoffs sum to zero everywhere.
func (g *Game) IsZeroSum() bool {
	for i := range g.A {
		for j := range g.A[i] {
			if math.Abs(g.A[i][j]+g.B[i][j]) > 1e-12 {
				return false
			}
		}
	}
	return true
}

// Class is a coarse taxonomy of tussle games (§IV-D: "in some cases, the
// interests of the players are simply adverse ... But in many cases,
// players' interests are not adverse, but simply different").
type Class uint8

// Game classes.
const (
	// Conflict: strictly adverse interests (zero-sum).
	Conflict Class = iota
	// Coordination: some pure equilibrium is best for both players
	// simultaneously (common interest, incentive to align).
	Coordination
	// MixedMotive: neither — partially aligned, partially adverse.
	MixedMotive
)

func (c Class) String() string {
	switch c {
	case Conflict:
		return "conflict"
	case Coordination:
		return "coordination"
	default:
		return "mixed-motive"
	}
}

// Classify assigns a game to a tussle class.
func (g *Game) Classify() Class {
	if g.IsZeroSum() {
		return Conflict
	}
	// Coordination: a pure Nash equilibrium that is also the global
	// maximum for both players.
	maxA, maxB := math.Inf(-1), math.Inf(-1)
	for i := range g.A {
		for j := range g.A[i] {
			maxA = math.Max(maxA, g.A[i][j])
			maxB = math.Max(maxB, g.B[i][j])
		}
	}
	for _, eq := range g.PureNash() {
		if g.A[eq[0]][eq[1]] == maxA && g.B[eq[0]][eq[1]] == maxB {
			return Coordination
		}
	}
	return MixedMotive
}

// PureNash enumerates all pure-strategy Nash equilibria as (row, col)
// pairs.
func (g *Game) PureNash() [][2]int {
	var out [][2]int
	for i := range g.A {
		for j := range g.A[i] {
			best := true
			for i2 := range g.A {
				if g.A[i2][j] > g.A[i][j]+1e-12 {
					best = false
					break
				}
			}
			if !best {
				continue
			}
			for j2 := range g.B[i] {
				if g.B[i][j2] > g.B[i][j]+1e-12 {
					best = false
					break
				}
			}
			if best {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

// Mixed is a mixed strategy profile for a two-player game.
type Mixed struct {
	Row, Col []float64
	// Value is the row player's expected payoff at the profile.
	Value float64
}

// expected returns the two players' expected payoffs under (p, q).
func (g *Game) expected(p, q []float64) (float64, float64) {
	var ea, eb float64
	for i := range g.A {
		for j := range g.A[i] {
			w := p[i] * q[j]
			ea += w * g.A[i][j]
			eb += w * g.B[i][j]
		}
	}
	return ea, eb
}

// Nash2x2 computes a (possibly mixed) Nash equilibrium of a 2x2 game
// exactly: pure equilibria are returned if they exist; otherwise the
// indifference-condition mixed equilibrium.
func (g *Game) Nash2x2() (Mixed, error) {
	if g.Rows() != 2 || g.Cols() != 2 {
		return Mixed{}, fmt.Errorf("gametheory: Nash2x2 on %dx%d game", g.Rows(), g.Cols())
	}
	if eqs := g.PureNash(); len(eqs) > 0 {
		p := []float64{0, 0}
		q := []float64{0, 0}
		p[eqs[0][0]] = 1
		q[eqs[0][1]] = 1
		ea, _ := g.expected(p, q)
		return Mixed{Row: p, Col: q, Value: ea}, nil
	}
	// Row mixes to make column indifferent: p*B[0][0]+(1-p)*B[1][0] =
	// p*B[0][1]+(1-p)*B[1][1].
	denB := g.B[0][0] - g.B[0][1] - g.B[1][0] + g.B[1][1]
	denA := g.A[0][0] - g.A[1][0] - g.A[0][1] + g.A[1][1]
	if denB == 0 || denA == 0 {
		return Mixed{}, fmt.Errorf("gametheory: degenerate 2x2 game")
	}
	p := (g.B[1][1] - g.B[1][0]) / denB
	q := (g.A[1][1] - g.A[0][1]) / denA
	if p < 0 || p > 1 || q < 0 || q > 1 {
		return Mixed{}, fmt.Errorf("gametheory: no interior equilibrium")
	}
	row := []float64{p, 1 - p}
	col := []float64{q, 1 - q}
	ea, _ := g.expected(row, col)
	return Mixed{Row: row, Col: col, Value: ea}, nil
}

// FictitiousPlay runs the classic learning dynamic for iters rounds and
// returns the empirical mixed strategies. For zero-sum games it converges
// to the game value (von Neumann); it is also the package's general
// m×n zero-sum solver.
func (g *Game) FictitiousPlay(iters int) Mixed {
	rowCounts := make([]float64, g.Rows())
	colCounts := make([]float64, g.Cols())
	// Start from the first strategies.
	rowCounts[0], colCounts[0] = 1, 1
	for t := 0; t < iters; t++ {
		// Row best-responds to the column empirical mix.
		bestI, bestV := 0, math.Inf(-1)
		for i := 0; i < g.Rows(); i++ {
			v := 0.0
			for j := 0; j < g.Cols(); j++ {
				v += colCounts[j] * g.A[i][j]
			}
			if v > bestV {
				bestV, bestI = v, i
			}
		}
		bestJ, bestW := 0, math.Inf(-1)
		for j := 0; j < g.Cols(); j++ {
			w := 0.0
			for i := 0; i < g.Rows(); i++ {
				w += rowCounts[i] * g.B[i][j]
			}
			if w > bestW {
				bestW, bestJ = w, j
			}
		}
		rowCounts[bestI]++
		colCounts[bestJ]++
	}
	p := normalize(rowCounts)
	q := normalize(colCounts)
	ea, _ := g.expected(p, q)
	return Mixed{Row: p, Col: q, Value: ea}
}

func normalize(v []float64) []float64 {
	total := 0.0
	for _, x := range v {
		total += x
	}
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x / total
	}
	return out
}

// Exploitability measures how far a profile is from equilibrium: the
// total gain available to the two players by unilateral best response.
// Zero means Nash.
func (g *Game) Exploitability(m Mixed) float64 {
	ea, eb := g.expected(m.Row, m.Col)
	bestA := math.Inf(-1)
	for i := 0; i < g.Rows(); i++ {
		v := 0.0
		for j := 0; j < g.Cols(); j++ {
			v += m.Col[j] * g.A[i][j]
		}
		bestA = math.Max(bestA, v)
	}
	bestB := math.Inf(-1)
	for j := 0; j < g.Cols(); j++ {
		w := 0.0
		for i := 0; i < g.Rows(); i++ {
			w += m.Row[i] * g.B[i][j]
		}
		bestB = math.Max(bestB, w)
	}
	return (bestA - ea) + (bestB - eb)
}

// Canonical tussle games used across the experiment suite.

// PrisonersDilemma: the TCP congestion-control tussle in miniature —
// cooperate (back off) or defect (blast). Defection dominates, the
// equilibrium is mutual defection, and social pressure alone sustains
// cooperation (§II-B's "system design perspectives" discussion).
func PrisonersDilemma() *Game {
	return New("prisoners-dilemma",
		[][]float64{{3, 0}, {5, 1}},
		[][]float64{{3, 5}, {0, 1}})
}

// MatchingPennies: pure conflict — the evader/inspector tussle
// (steganography vs detection, tunneling vs classification).
func MatchingPennies() *Game {
	return ZeroSum("matching-pennies", [][]float64{{1, -1}, {-1, 1}})
}

// StagHunt: a coordination tussle — both parties prefer joint deployment
// (of QoS, of multicast) but defect to the safe status quo without
// assurance.
func StagHunt() *Game {
	return New("stag-hunt",
		[][]float64{{4, 0}, {3, 3}},
		[][]float64{{4, 3}, {0, 3}})
}

// BattleOfTheSexes: mixed-motive standardization tussle — both want to
// agree on an interface but each prefers its own.
func BattleOfTheSexes() *Game {
	return New("battle-of-the-sexes",
		[][]float64{{2, 0}, {0, 1}},
		[][]float64{{1, 0}, {0, 2}})
}
