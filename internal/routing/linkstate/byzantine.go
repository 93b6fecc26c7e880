package linkstate

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trust"
)

// This file implements the Perlman-style byzantine-robust variant §II-B
// cites: "network routing in the presence of byzantine failures ...
// highly resistant to attempts by players, even small groups of players,
// to place their interests over the values chosen by the designers."
//
// Threat model: a byzantine node advertises falsely low costs on its
// links to attract transit traffic, then blackholes it. Two defenses are
// composable:
//
//   - signatures: advertisements are signed, so a liar cannot forge
//     *other* nodes' advertisements (flooding integrity);
//   - two-sided attestation: a link's effective cost is the MAX of the
//     two endpoints' claims, so a liar can repel traffic from its links
//     (raise its own claims) but cannot unilaterally attract it.

// Advertisement is one node's signed claim about its adjacent links.
type Advertisement struct {
	From  topology.NodeID
	Costs map[topology.NodeID]float64
	Sig   []byte
}

// adBytes is the canonical signed encoding: the advertiser, then each
// neighbour in ascending ID with its cost in the shortest decimal form
// that parses back to the same float64, so the signature covers the
// exact costs SPF reads.
func adBytes(a *Advertisement) []byte {
	nbrs := make([]topology.NodeID, 0, len(a.Costs))
	for n := range a.Costs {
		nbrs = append(nbrs, n)
	}
	slices.Sort(nbrs)
	out := strconv.AppendUint([]byte("lsa:"), uint64(a.From), 10)
	for _, n := range nbrs {
		out = append(out, '|')
		out = strconv.AppendUint(out, uint64(n), 10)
		out = append(out, '=')
		out = strconv.AppendFloat(out, a.Costs[n], 'g', -1, 64)
	}
	return out
}

// Sign attaches the node's signature.
func (a *Advertisement) Sign(p *trust.Principal) { a.Sig = p.Sign(adBytes(a)) }

// HonestAdvertisement advertises the true costs of node's links.
func HonestAdvertisement(g *topology.Graph, node topology.NodeID) *Advertisement {
	ad := &Advertisement{From: node, Costs: map[topology.NodeID]float64{}}
	for _, nb := range g.Neighbors(node) {
		l, _ := g.LinkBetween(node, nb)
		ad.Costs[nb] = l.Cost
	}
	return ad
}

// LiarAdvertisement advertises the given (falsely attractive) cost on
// every adjacent link, plus optional phantom links to non-neighbors.
func LiarAdvertisement(g *topology.Graph, node topology.NodeID, cost float64, phantoms []topology.NodeID) *Advertisement {
	ad := &Advertisement{From: node, Costs: map[topology.NodeID]float64{}}
	for _, nb := range g.Neighbors(node) {
		ad.Costs[nb] = cost
	}
	for _, p := range phantoms {
		ad.Costs[p] = cost
	}
	return ad
}

// VerifyMode selects the database's defense posture.
type VerifyMode uint8

// Verification modes.
const (
	// TrustAll accepts every advertisement at face value and uses the
	// advertiser's own claim for its outgoing edges — the cooperative
	// model "that no longer exists universally in the network".
	TrustAll VerifyMode = iota
	// SignedTwoSided verifies signatures, rejects phantom links, and
	// takes the max of the two endpoints' claims per link.
	SignedTwoSided
)

// AdDatabase is a link-state database built from advertisements rather
// than ground truth.
//
// Like Database, it reuses one shortest-path search across SPF calls, so
// an AdDatabase must not be shared across goroutines; each simulation
// owns its own.
type AdDatabase struct {
	spf
	Mode VerifyMode
	ads  map[topology.NodeID]*Advertisement
	keys map[topology.NodeID]*trust.Principal

	// Rejected counts advertisements or entries discarded by defenses.
	Rejected int

	// obs instruments flooding; nil means disabled.
	adsFlooded  *obs.Counter
	adsRejected *obs.Counter
}

// AttachObs enables advertisement-database observability: SPF runs and
// settled-node distribution (same names as Database, so either routing
// substrate feeds the same metrics), plus counters for advertisements
// flooded and rejected by the verification mode's defenses. A nil
// registry disables again.
func (db *AdDatabase) AttachObs(reg *obs.Registry) {
	db.attachObs(reg)
	if reg == nil {
		db.adsFlooded, db.adsRejected = nil, nil
		return
	}
	db.adsFlooded = reg.Counter("routing.linkstate.ads_flooded")
	db.adsRejected = reg.Counter("routing.linkstate.ads_rejected")
}

// NewAdDatabase creates an empty advertisement database. keys maps each
// node to its signing principal (public halves are what verifiers use;
// the same struct carries both here for simplicity).
func NewAdDatabase(g *topology.Graph, mode VerifyMode, keys map[topology.NodeID]*trust.Principal) *AdDatabase {
	return &AdDatabase{spf: spf{g: g}, Mode: mode, ads: map[topology.NodeID]*Advertisement{}, keys: keys}
}

// Flood installs an advertisement, applying the mode's checks.
func (db *AdDatabase) Flood(ad *Advertisement) {
	rejected0 := db.Rejected
	if db.adsFlooded != nil {
		db.adsFlooded.Inc()
	}
	if db.Mode == SignedTwoSided {
		p := db.keys[ad.From]
		if p == nil || ad.Sig == nil || !p.Verify(adBytes(ad), ad.Sig) {
			db.Rejected++
			if db.adsRejected != nil {
				db.adsRejected.Add(int64(db.Rejected - rejected0))
			}
			return
		}
		// Drop phantom entries: claims about non-adjacent links.
		for nb := range ad.Costs {
			if _, adj := db.g.LinkBetween(ad.From, nb); !adj {
				delete(ad.Costs, nb)
				db.Rejected++
			}
		}
	}
	if db.adsRejected != nil {
		db.adsRejected.Add(int64(db.Rejected - rejected0))
	}
	db.ads[ad.From] = ad
}

// EffectiveCost returns the cost the database believes for the directed
// edge a→b.
func (db *AdDatabase) EffectiveCost(a, b topology.NodeID) (float64, bool) {
	adA := db.ads[a]
	if adA == nil {
		return 0, false
	}
	ca, okA := adA.Costs[b]
	switch db.Mode {
	case TrustAll:
		if !okA {
			return 0, false
		}
		return ca, true
	default:
		adB := db.ads[b]
		if adB == nil {
			return 0, false
		}
		cb, okB := adB.Costs[a]
		if !okA || !okB {
			// Mutual attestation required.
			return 0, false
		}
		return math.Max(ca, cb), true
	}
}

// SPF runs the shortest-path search from src over the advertised (not
// true) costs. Its edges are the neighbours each advertisement claims,
// phantoms included, not the graph's.
func (db *AdDatabase) SPF(src topology.NodeID) map[topology.NodeID]topology.NodeID {
	sp := &db.search
	sp.Reset(src)
	for u, _, ok := sp.Next(); ok; u, _, ok = sp.Next() {
		if ad := db.ads[u]; ad != nil {
			for v := range ad.Costs {
				if c, ok := db.EffectiveCost(u, v); ok {
					sp.Relax(v, c)
				}
			}
		}
	}
	return db.tables()
}

// GenerateKeys creates one signing principal per node, deterministically.
func GenerateKeys(g *topology.Graph, rng *sim.RNG) map[topology.NodeID]*trust.Principal {
	keys := make(map[topology.NodeID]*trust.Principal, len(g.Nodes))
	for _, id := range g.NodeIDs() {
		keys[id] = trust.NewPrincipal(fmt.Sprintf("router-%d", id), trust.Certified, rng)
	}
	return keys
}
