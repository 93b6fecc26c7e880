package gametheory

import (
	"testing"

	"repro/internal/sim"
)

func BenchmarkFictitiousPlay2x2(b *testing.B) {
	g := MatchingPennies()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.FictitiousPlay(1000)
	}
}

func BenchmarkFictitiousPlayRPS(b *testing.B) {
	g := ZeroSum("rps", [][]float64{{0, -1, 1}, {1, 0, -1}, {-1, 1, 0}})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.FictitiousPlay(1000)
	}
}

func BenchmarkPureNashEnumeration(b *testing.B) {
	rng := sim.NewRNG(1)
	n := 8
	a := make([][]float64, n)
	bb := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		bb[i] = make([]float64, n)
		for j := range a[i] {
			a[i][j] = rng.Range(-5, 5)
			bb[i][j] = rng.Range(-5, 5)
		}
	}
	g := New("rand8", a, bb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.PureNash()
	}
}

func BenchmarkReplicator(b *testing.B) {
	a := [][]float64{{3, 0}, {5, 1}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Replicator(a, []float64{0.5, 0.5}, 1000)
	}
}
