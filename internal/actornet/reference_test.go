package actornet

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/sim"
)

// refNetwork is the name-keyed actor network the index-addressed Network
// replaced, kept as an oracle: nested string maps for the alignments and
// sorted name lists for iteration order.
type refNetwork struct {
	rng       *sim.RNG
	actors    map[string]bool
	align     map[string]map[string]float64
	actorList []string
	nbr       map[string][]string
	Round     int

	HarmonizationRate float64
	Perturbation      float64

	ChangesTried, ChangesWon int

	entrySeq int
}

func newRef(rng *sim.RNG) *refNetwork {
	return &refNetwork{
		rng:               rng,
		actors:            make(map[string]bool),
		align:             make(map[string]map[string]float64),
		nbr:               make(map[string][]string),
		HarmonizationRate: 0.05,
		Perturbation:      0.35,
	}
}

func (n *refNetwork) AddActor(name string) {
	if n.actors[name] {
		panic(fmt.Sprintf("actornet: duplicate actor %q", name))
	}
	n.actors[name] = true
	n.align[name] = make(map[string]float64)
	n.actorList = refInsertSorted(n.actorList, name)
}

func refInsertSorted(xs []string, s string) []string {
	i := sort.SearchStrings(xs, s)
	xs = append(xs, "")
	copy(xs[i+1:], xs[i:])
	xs[i] = s
	return xs
}

func (n *refNetwork) Align(a, b string, v float64) {
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	if _, known := n.align[a][b]; !known {
		n.nbr[a] = refInsertSorted(n.nbr[a], b)
		n.nbr[b] = refInsertSorted(n.nbr[b], a)
	}
	n.align[a][b] = v
	n.align[b][a] = v
}

func (n *refNetwork) Alignment(a, b string) float64 { return n.align[a][b] }

func (n *refNetwork) Actors() []string {
	out := make([]string, len(n.actorList))
	copy(out, n.actorList)
	return out
}

func (n *refNetwork) Durability() float64 {
	total, count := 0.0, 0
	for _, name := range n.actorList {
		for _, other := range n.nbr[name] {
			if other > name {
				total += n.align[name][other]
				count++
			}
		}
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

func (n *refNetwork) Step(entryRate float64) {
	n.Round++
	for _, name := range n.actorList {
		for _, other := range n.nbr[name] {
			if other > name {
				nv := n.align[name][other] + n.HarmonizationRate*(1-n.align[name][other])
				n.align[name][other] = nv
				n.align[other][name] = nv
			}
		}
	}
	if n.rng.Bool(entryRate) && len(n.actors) > 0 {
		n.enter()
	}
}

func (n *refNetwork) enter() {
	n.entrySeq++
	name := fmt.Sprintf("entrant-%d", n.entrySeq)
	n.rng.Intn(3) // the entrant's kind
	n.AddActor(name)
	existing := n.actorList
	attach := 3
	if attach > len(existing)-1 {
		attach = len(existing) - 1
	}
	perm := n.rng.Perm(len(existing))
	attached := 0
	for _, idx := range perm {
		target := existing[idx]
		if target == name {
			continue
		}
		n.Align(name, target, n.rng.Range(0.05, 0.3))
		for _, other := range n.nbr[target] {
			if other == name {
				continue
			}
			nv := n.align[target][other] * (1 - n.Perturbation)
			n.align[target][other] = nv
			n.align[other][target] = nv
		}
		attached++
		if attached >= attach {
			break
		}
	}
}

func (n *refNetwork) AttemptChange() bool {
	n.ChangesTried++
	if n.rng.Float64() < 1-n.Durability() {
		n.ChangesWon++
		return true
	}
	return false
}

func refSeedInternet(rng *sim.RNG) *refNetwork {
	n := newRef(rng)
	n.AddActor("protocols")
	n.AddActor("isps")
	n.AddActor("users")
	n.AddActor("applications")
	n.AddActor("lawmakers")
	names := n.Actors()
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			n.Align(names[i], names[j], rng.Range(0.2, 0.5))
		}
	}
	return n
}

// TestMatchesReference runs the index-addressed network beside the
// name-keyed oracle on many seeds and entry rates, in E12's pattern of a
// change attempt every third round, and requires bit-identical floats:
// Durability after every round, every AttemptChange outcome, and at the
// end every pairwise Alignment, the name-ordered actor list and the
// entry count.
func TestMatchesReference(t *testing.T) {
	seeds := 16
	if testing.Short() {
		seeds = 4
	}
	const rounds = 300
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		for _, rate := range []float64{0, 0.1, 0.3, 0.6, 1} {
			got := SeedInternet(sim.NewRNG(seed))
			want := refSeedInternet(sim.NewRNG(seed))
			for i := 0; i < rounds; i++ {
				got.Step(rate)
				want.Step(rate)
				if g, w := got.Durability(), want.Durability(); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("seed %d rate %v round %d: Durability %v, reference %v", seed, rate, i, g, w)
				}
				if i%3 == 0 {
					if g, w := got.AttemptChange(), want.AttemptChange(); g != w {
						t.Fatalf("seed %d rate %v round %d: AttemptChange %v, reference %v", seed, rate, i, g, w)
					}
				}
			}
			names := got.Actors()
			if !slices.Equal(names, want.Actors()) {
				t.Fatalf("seed %d rate %v: Actors differ from the reference", seed, rate)
			}
			for _, a := range names {
				for _, b := range names {
					if g, w := alignment(got, a, b), want.Alignment(a, b); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("seed %d rate %v: Alignment(%s, %s) = %v, reference %v", seed, rate, a, b, g, w)
					}
				}
			}
		}
	}
}
