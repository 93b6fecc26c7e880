package gametheory

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestPureNashPrisonersDilemma(t *testing.T) {
	g := PrisonersDilemma()
	eqs := g.PureNash()
	if len(eqs) != 1 || eqs[0] != [2]int{1, 1} {
		t.Fatalf("PD equilibria = %v, want defect/defect", eqs)
	}
}

func TestPureNashStagHunt(t *testing.T) {
	eqs := StagHunt().PureNash()
	if len(eqs) != 2 {
		t.Fatalf("stag hunt equilibria = %v, want 2", eqs)
	}
}

func TestPureNashMatchingPenniesNone(t *testing.T) {
	if eqs := MatchingPennies().PureNash(); len(eqs) != 0 {
		t.Fatalf("matching pennies has pure equilibria: %v", eqs)
	}
}

func TestClassify(t *testing.T) {
	if c := MatchingPennies().Classify(); c != Conflict {
		t.Fatalf("matching pennies = %v", c)
	}
	if c := StagHunt().Classify(); c != Coordination {
		t.Fatalf("stag hunt = %v", c)
	}
	if c := PrisonersDilemma().Classify(); c != MixedMotive {
		t.Fatalf("prisoners dilemma = %v", c)
	}
	if c := BattleOfTheSexes().Classify(); c != MixedMotive {
		t.Fatalf("battle of the sexes = %v", c)
	}
}

func TestIsZeroSum(t *testing.T) {
	if !MatchingPennies().IsZeroSum() {
		t.Fatal("matching pennies should be zero-sum")
	}
	if PrisonersDilemma().IsZeroSum() {
		t.Fatal("PD is not zero-sum")
	}
}

func TestNash2x2MixedMatchingPennies(t *testing.T) {
	m, err := MatchingPennies().Nash2x2()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range append(m.Row, m.Col...) {
		if math.Abs(p-0.5) > 1e-9 {
			t.Fatalf("equilibrium = %+v, want uniform", m)
		}
	}
	if math.Abs(m.Value) > 1e-9 {
		t.Fatalf("value = %v, want 0", m.Value)
	}
}

func TestNash2x2PureWhenExists(t *testing.T) {
	m, err := PrisonersDilemma().Nash2x2()
	if err != nil {
		t.Fatal(err)
	}
	if m.Row[1] != 1 || m.Col[1] != 1 {
		t.Fatalf("PD equilibrium = %+v, want pure defect", m)
	}
	if m.Value != 1 {
		t.Fatalf("PD value = %v", m.Value)
	}
}

func TestNash2x2WrongSize(t *testing.T) {
	g := ZeroSum("big", [][]float64{{1, 2, 3}, {4, 5, 6}})
	if _, err := g.Nash2x2(); err == nil {
		t.Fatal("3-column game accepted")
	}
}

func TestNash2x2HasZeroExploitability(t *testing.T) {
	for _, g := range []*Game{MatchingPennies(), PrisonersDilemma(), StagHunt(), BattleOfTheSexes()} {
		m, err := g.Nash2x2()
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if e := g.Exploitability(m); e > 1e-9 {
			t.Fatalf("%s: exploitability %v at claimed equilibrium", g.Name, e)
		}
	}
}

func TestFictitiousPlayConvergesZeroSum(t *testing.T) {
	m := MatchingPennies().FictitiousPlay(20000)
	if math.Abs(m.Value) > 0.02 {
		t.Fatalf("FP value = %v, want ~0", m.Value)
	}
	for _, p := range m.Row {
		if math.Abs(p-0.5) > 0.05 {
			t.Fatalf("FP row mix = %v", m.Row)
		}
	}
}

func TestFictitiousPlayLowExploitability(t *testing.T) {
	g := ZeroSum("rps", [][]float64{
		{0, -1, 1},
		{1, 0, -1},
		{-1, 1, 0},
	})
	m := g.FictitiousPlay(50000)
	if e := g.Exploitability(m); e > 0.05 {
		t.Fatalf("RPS exploitability after FP = %v", e)
	}
}

func TestZeroSumValueRandomGamesQuick(t *testing.T) {
	// For any zero-sum game, the FP value must lie between the pure
	// maximin and minimax bounds.
	rng := sim.NewRNG(1)
	f := func(seed uint16) bool {
		n := int(seed%3) + 2
		a := make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = rng.Range(-5, 5)
			}
		}
		g := ZeroSum("rand", a)
		v := g.FictitiousPlay(5000).Value
		// maximin <= v <= minimax
		maximin := math.Inf(-1)
		for i := range a {
			rowMin := math.Inf(1)
			for j := range a[i] {
				rowMin = math.Min(rowMin, a[i][j])
			}
			maximin = math.Max(maximin, rowMin)
		}
		minimax := math.Inf(1)
		for j := range a[0] {
			colMax := math.Inf(-1)
			for i := range a {
				colMax = math.Max(colMax, a[i][j])
			}
			minimax = math.Min(minimax, colMax)
		}
		return v >= maximin-0.15 && v <= minimax+0.15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBestResponseDynamicsConvergesPD(t *testing.T) {
	profiles, converged := PrisonersDilemma().BestResponseDynamics(0, 0, 100)
	if !converged {
		t.Fatal("PD best response should converge")
	}
	last := profiles[len(profiles)-1]
	if last != [2]int{1, 1} {
		t.Fatalf("converged to %v", last)
	}
}

func TestBestResponseDynamicsCyclesMatchingPennies(t *testing.T) {
	_, converged := MatchingPennies().BestResponseDynamics(0, 0, 100)
	if converged {
		t.Fatal("matching pennies best response should cycle forever — no stable point")
	}
}

func TestReplicatorDominantStrategyTakesOver(t *testing.T) {
	// Symmetric PD payoff matrix: defect strictly dominates.
	a := [][]float64{{3, 0}, {5, 1}}
	x := Replicator(a, []float64{0.9, 0.1}, 2000)
	if x[1] < 0.99 {
		t.Fatalf("defection share = %v, want ~1", x[1])
	}
}

func TestReplicatorPreservesSimplex(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		a := [][]float64{
			{rng.Range(-2, 2), rng.Range(-2, 2)},
			{rng.Range(-2, 2), rng.Range(-2, 2)},
		}
		p := rng.Float64()
		x := Replicator(a, []float64{p, 1 - p}, 500)
		total := x[0] + x[1]
		return x[0] >= -1e-9 && x[1] >= -1e-9 && math.Abs(total-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestVickreyWinnerPaysSecondPrice(t *testing.T) {
	res, ok := Vickrey([]Bid{{"a", 10}, {"b", 7}, {"c", 3}})
	if !ok || res.Winner != "a" || res.Price != 7 {
		t.Fatalf("vickrey = %+v", res)
	}
}

func TestVickreySingleBidder(t *testing.T) {
	res, ok := Vickrey([]Bid{{"solo", 5}})
	if !ok || res.Winner != "solo" || res.Price != 0 {
		t.Fatalf("single-bidder vickrey = %+v", res)
	}
}

func TestVickreyEmpty(t *testing.T) {
	if _, ok := Vickrey(nil); ok {
		t.Fatal("empty auction produced a winner")
	}
}

func TestVickreyTruthfulFirstPriceNot(t *testing.T) {
	others := []Bid{{"b", 6}, {"c", 4}}
	grid := []float64{0, 1, 2, 3, 4, 5, 5.5, 6.5, 7, 8, 9, 10, 12}
	if gain := TruthfulnessViolation(Vickrey, "a", 8, others, grid); gain > 1e-12 {
		t.Fatalf("Vickrey exploitable by %v", gain)
	}
	if gain := TruthfulnessViolation(FirstPrice, "a", 8, others, grid); gain <= 0 {
		t.Fatal("first-price should reward shading the bid")
	}
}

func TestVickreyTruthfulQuick(t *testing.T) {
	rng := sim.NewRNG(3)
	f := func(seed uint32) bool {
		trueVal := rng.Range(0, 10)
		others := []Bid{{"b", rng.Range(0, 10)}, {"c", rng.Range(0, 10)}}
		grid := make([]float64, 21)
		for i := range grid {
			grid[i] = float64(i) / 2
		}
		return TruthfulnessViolation(Vickrey, "a", trueVal, others, grid) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnBadMatrices(t *testing.T) {
	cases := [][2][][]float64{
		{{}, {}},
		{{{1}}, {{1}, {2}}},
		{{{1, 2}, {3}}, {{1, 2}, {3, 4}}},
	}
	for i, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			New("bad", c[0], c[1])
		}()
	}
}
