package gametheory

import "math"

// BestResponseDynamics iterates alternating pure best responses from a
// starting profile, returning the visited profiles. A cycle with period
// > 1 means the tussle has "no final outcome, no stable point" — the
// paper's run-time tussle; a fixed point is a pure Nash equilibrium.
func (g *Game) BestResponseDynamics(startRow, startCol, maxSteps int) (profiles [][2]int, converged bool) {
	i, j := startRow, startCol
	profiles = append(profiles, [2]int{i, j})
	for s := 0; s < maxSteps; s++ {
		ni := i
		best := math.Inf(-1)
		for r := 0; r < g.Rows(); r++ {
			if g.A[r][j] > best {
				best, ni = g.A[r][j], r
			}
		}
		nj := j
		best = math.Inf(-1)
		for c := 0; c < g.Cols(); c++ {
			if g.B[ni][c] > best {
				best, nj = g.B[ni][c], c
			}
		}
		if ni == i && nj == j {
			return profiles, true
		}
		i, j = ni, nj
		profiles = append(profiles, [2]int{i, j})
	}
	return profiles, false
}

// Replicator runs discrete-time replicator dynamics on a symmetric game
// (payoff matrix A, one population): the evolutionary/bounded-rationality
// model of §II-B ("actors are often ill-informed, myopic"). It returns
// the population mix after steps iterations.
func Replicator(a [][]float64, initial []float64, steps int) []float64 {
	n := len(a)
	x := make([]float64, n)
	copy(x, initial)
	for s := 0; s < steps; s++ {
		fitness := make([]float64, n)
		var avg float64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				fitness[i] += a[i][j] * x[j]
			}
			avg += x[i] * fitness[i]
		}
		// Shift payoffs to keep fitness positive for the ratio update.
		minF := math.Inf(1)
		for _, f := range fitness {
			minF = math.Min(minF, f)
		}
		shift := 0.0
		if minF <= 0 {
			shift = -minF + 1
		}
		total := 0.0
		next := make([]float64, n)
		for i := 0; i < n; i++ {
			next[i] = x[i] * (fitness[i] + shift)
			total += next[i]
		}
		if total == 0 {
			return x
		}
		for i := range next {
			next[i] /= total
		}
		x = next
	}
	return x
}
