package chaos

import (
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/routing/linkstate"
	"repro/internal/routing/pathvector"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trust"
)

// This file wires routing protocols to the fault engine: a Rerouter is an
// Observer that resynchronizes its protocol's view of the topology from
// the network's actual fault state, recomputes routes, and installs the
// new tables after a modeled reconvergence delay. Convergence time and
// route churn are exported as plain fields (for deterministic experiment
// tables) and obs histograms (for -metrics snapshots).
//
// Rerouters resync from netsim ground truth rather than applying event
// diffs, so they are idempotent under duplicate notifications and
// independent of event ordering — a partition and the same links failed
// one by one converge to identical tables.

// The delay models. Link-state news floods at floodHopDelay per hop and
// then costs computeDelay of SPF; path-vector news travels by iterative
// advertisement at iterDelay per convergence iteration (BGP-style
// propagation is slow).
const (
	floodHopDelay = 500 * sim.Microsecond
	computeDelay  = 100 * sim.Microsecond
	iterDelay     = 5 * sim.Millisecond
)

// nextHops is a snapshot of every node's next hop per destination, the
// unit of churn accounting.
type nextHops map[topology.NodeID]map[topology.NodeID]topology.NodeID

// churnCount counts (node, dst) pairs whose next hop changed, appeared,
// or disappeared between two snapshots.
func churnCount(prev, cur nextHops) int {
	churn := 0
	for node, curTable := range cur {
		prevTable := prev[node]
		for dst, nh := range curTable {
			if p, ok := prevTable[dst]; !ok || p != nh {
				churn++
			}
		}
		for dst := range prevTable {
			if _, ok := curTable[dst]; !ok {
				churn++
			}
		}
	}
	for node, prevTable := range prev {
		if _, ok := cur[node]; !ok {
			churn += len(prevTable)
		}
	}
	return churn
}

// floodRadius is the hop distance (over live links and nodes) from the
// fault site to the farthest reachable node: how many flooding hops the
// news must travel before the whole network has heard it.
func floodRadius(net *netsim.Network, seeds []topology.NodeID) int {
	g := net.Graph
	dist := make(map[topology.NodeID]int, len(g.Nodes))
	queue := make([]topology.NodeID, 0, len(g.Nodes))
	for _, s := range seeds {
		if _, ok := g.Nodes[s]; !ok {
			continue
		}
		if net.NodeFailed(s) {
			// A crashed node announces nothing; its live neighbors detect
			// the death simultaneously and originate the news.
			for _, nb := range g.Neighbors(s) {
				if net.NodeFailed(nb) {
					continue
				}
				if _, seen := dist[nb]; !seen {
					dist[nb] = 0
					queue = append(queue, nb)
				}
			}
			continue
		}
		dist[s] = 0
		queue = append(queue, s)
	}
	radius := 0
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, nb := range g.Neighbors(id) {
			if net.LinkFailed(id, nb) || net.NodeFailed(nb) {
				continue
			}
			if _, seen := dist[nb]; seen {
				continue
			}
			dist[nb] = dist[id] + 1
			if dist[nb] > radius {
				radius = dist[nb]
			}
			queue = append(queue, nb)
		}
	}
	return radius
}

// faultSite lists the nodes where an event's news originates.
func faultSite(ev Event) []topology.NodeID {
	switch ev.Kind {
	case LinkDown, LinkUp, LinkFlap, Impair, ClearImpair:
		return []topology.NodeID{ev.A, ev.B}
	case NodeCrash, NodeRecover:
		return []topology.NodeID{ev.Node}
	case Partition:
		return ev.Group
	case ByzantineBurst:
		return []topology.NodeID{ev.Node}
	default: // Heal: the news comes up everywhere the cut was; approximate
		return nil
	}
}

// topologyFault reports whether the event changes connectivity (and so
// warrants a routing reconvergence).
func topologyFault(k Kind) bool {
	switch k {
	case LinkDown, LinkUp, LinkFlap, NodeCrash, NodeRecover, Partition, Heal:
		return true
	}
	return false
}

// Rerouter re-converges one routing protocol on the faults it reacts to:
// it resyncs the protocol from the network's fault state, recomputes
// every node's next hops, counts the churn against the previous
// computation, and installs the new routes on every node after the
// protocol's modeled delay. A newer reconvergence supersedes an older
// one whose install is still pending. With Install false it is a shadow
// instance: it measures reconvergence time and churn without touching
// forwarding (useful to report one protocol's convergence while the
// network forwards by another).
type Rerouter struct {
	// Install controls whether recomputed routes are installed as node
	// RouteFuncs.
	Install bool

	// Reconverges, TotalDelay and TotalChurn accumulate for experiment
	// tables (deterministic, obs-independent).
	Reconverges int
	TotalDelay  sim.Time
	TotalChurn  int

	sched  *sim.Scheduler
	metric string // obs metric prefix
	reacts func(Kind) bool
	// resync brings the protocol up to date with the network's fault
	// state after ev (the zero Event at Converge) and recomputes. It
	// returns every node's next hops and a function that installs them.
	resync func(ev Event) (nextHops, func(), error)
	// delay is the modeled reconvergence time for ev, asked after resync.
	delay func(ev Event) sim.Time

	prev nextHops
	gen  int // install generation: only the newest pending install runs

	reconverges *obs.Counter
	delayNs     *obs.Histogram
	churn       *obs.Histogram
}

// AttachObs binds the rerouter's reconvergence metrics. A nil registry
// disables again.
func (r *Rerouter) AttachObs(reg *obs.Registry) {
	if reg == nil {
		r.reconverges, r.delayNs, r.churn = nil, nil, nil
		return
	}
	r.reconverges = reg.Counter(r.metric + ".reconverges")
	r.delayNs = reg.Histogram(r.metric+".reconverge_time_ns", obs.TimeBucketsNs)
	r.churn = reg.Histogram(r.metric+".route_churn", obs.CountBuckets)
}

// Converge recomputes routes from the current fault state and, when
// Install is set, installs them at once, modeling no delay — call it
// once at setup for the initial tables.
func (r *Rerouter) Converge() error {
	cur, install, err := r.resync(Event{})
	if err != nil {
		return err
	}
	r.prev = cur
	if r.Install {
		install()
	}
	return nil
}

// Fault implements Observer.
func (r *Rerouter) Fault(ev Event, now sim.Time) {
	if !r.reacts(ev.Kind) {
		return
	}
	cur, install, err := r.resync(ev)
	if err != nil {
		return // Gao–Rexford guarantees convergence; defensive only
	}
	churn := churnCount(r.prev, cur)
	r.prev = cur
	delay := r.delay(ev)
	r.Reconverges++
	r.TotalDelay += delay
	r.TotalChurn += churn
	if r.reconverges != nil {
		r.reconverges.Inc()
		r.delayNs.Observe(float64(delay))
		r.churn.Observe(float64(churn))
	}
	if r.Install {
		r.gen++
		gen := r.gen
		r.sched.After(delay, func() {
			if r.gen == gen {
				install()
			}
		})
	}
}

// floodDelay is the link-state delay model: the news floods hop by hop
// from the fault site to the farthest live node, then every node runs
// SPF.
func floodDelay(net *netsim.Network) func(Event) sim.Time {
	return func(ev Event) sim.Time {
		return sim.Time(floodRadius(net, faultSite(ev)))*floodHopDelay + computeDelay
	}
}

// NewLinkStateRerouter re-converges a ground-truth link-state Database on
// every topology fault: failed links and crashed nodes are masked with
// negative cost overrides (SPF skips them) and every table is recomputed.
// The modeled delay is flooding from the fault site plus one SPF run.
func NewLinkStateRerouter(net *netsim.Network, db *linkstate.Database, install bool) *Rerouter {
	saved := map[[2]topology.NodeID]*float64{} // pre-mask override state
	return &Rerouter{
		Install: install, sched: net.Sched, metric: "routing.linkstate",
		reacts: topologyFault,
		resync: func(Event) (nextHops, func(), error) {
			for _, l := range net.Graph.Links {
				down := net.LinkFailed(l.A, l.B) || net.NodeFailed(l.A) || net.NodeFailed(l.B)
				mask(db, saved, l.A, l.B, down)
				mask(db, saved, l.B, l.A, down)
			}
			return tableHops(net, linkstate.Compute(db))
		},
		delay: floodDelay(net),
	}
}

// mask sets or clears the fault override on the directed edge a→b of db,
// keeping any pre-existing traffic-engineering override in saved so it
// can be restored underneath.
func mask(db *linkstate.Database, saved map[[2]topology.NodeID]*float64, a, b topology.NodeID, down bool) {
	key := [2]topology.NodeID{a, b}
	prevSaved, masked := saved[key]
	if down {
		if masked {
			return
		}
		if c, ok := db.Overrides[key]; ok {
			cc := c
			saved[key] = &cc
		} else {
			saved[key] = nil
		}
		db.SetCost(a, b, -1)
		return
	}
	if !masked {
		return
	}
	if prevSaved != nil {
		db.SetCost(a, b, *prevSaved)
	} else {
		delete(db.Overrides, key)
	}
	delete(saved, key)
}

// tableHops returns the next hops of link-state tables and a function
// installing the tables as node routes.
func tableHops(net *netsim.Network, tables map[topology.NodeID]*linkstate.Table) (nextHops, func(), error) {
	nh := make(nextHops, len(tables))
	for id, tbl := range tables {
		nh[id] = tbl.Next
	}
	return nh, func() {
		for id, tbl := range tables {
			net.Node(id).Route = tbl.RouteFunc()
		}
	}, nil
}

// NewPathVectorRerouter re-converges a Gao–Rexford path-vector protocol
// on every topology fault: the protocol's link and node marks are synced
// from the network and every RIB is recomputed. The modeled delay is one
// iterDelay per convergence iteration.
//
// Converge rebuilds the RIB maps from scratch, so RouteFuncs captured
// from the previous convergence keep serving the old routes until the
// install replaces them — exactly the stale-routing window a real
// network has while BGP reconverges.
func NewPathVectorRerouter(net *netsim.Network, pv *pathvector.Protocol, install bool) *Rerouter {
	return &Rerouter{
		Install: install, sched: net.Sched, metric: "routing.pathvector",
		reacts: topologyFault,
		resync: func(Event) (nextHops, func(), error) {
			for _, l := range net.Graph.Links {
				pv.MarkLink(l.A, l.B, net.LinkFailed(l.A, l.B))
			}
			for _, id := range net.Graph.NodeIDs() {
				pv.MarkNode(id, net.NodeFailed(id))
			}
			if err := pv.Converge(); err != nil {
				return nil, nil, err
			}
			nh := make(nextHops, len(pv.RIBs))
			for id, rib := range pv.RIBs {
				table := make(map[topology.NodeID]topology.NodeID, len(rib.Best))
				for dst, route := range rib.Best {
					if len(route.Path) > 0 {
						table[dst] = route.Path[0]
					}
				}
				nh[id] = table
			}
			return nh, func() {
				for _, id := range net.Graph.NodeIDs() {
					net.Node(id).Route = pv.RouteFunc(id)
				}
			}, nil
		},
		delay: func(Event) sim.Time { return sim.Time(pv.Iterations) * iterDelay },
	}
}

// NewAdRerouter re-converges an advertisement-driven link-state database
// (the byzantine-defense substrate). On topology faults every live node
// re-floods an honest advertisement of its current live links (signed
// when keys are provided) and tables are recomputed from the advertised
// state; on byzantine bursts only the recompute happens — the lying
// advertisements stay in the database until the next honest re-flood,
// which is how the poison takes effect. The delay model is the
// link-state one.
//
// Note what this models under TrustAll: a crashed node's stale
// advertisement lingers (nobody re-attests its links), so traffic keeps
// routing into the dead router. SignedTwoSided's mutual attestation
// kills those edges as soon as the live neighbors re-flood.
func NewAdRerouter(net *netsim.Network, db *linkstate.AdDatabase, keys map[topology.NodeID]*trust.Principal, install bool) *Rerouter {
	return &Rerouter{
		Install: install, sched: net.Sched, metric: "routing.linkstate",
		reacts: func(k Kind) bool { return topologyFault(k) || k == ByzantineBurst },
		resync: func(ev Event) (nextHops, func(), error) {
			if ev.Kind != ByzantineBurst {
				reflood(net, db, keys)
			}
			return tableHops(net, linkstate.Compute(db))
		},
		delay: floodDelay(net),
	}
}

// reflood floods an honest advertisement from every live node, listing
// only its currently-live links. Crashed nodes flood nothing: their last
// advertisement goes stale (see NewAdRerouter).
func reflood(net *netsim.Network, db *linkstate.AdDatabase, keys map[topology.NodeID]*trust.Principal) {
	g := net.Graph
	for _, id := range g.NodeIDs() {
		if net.NodeFailed(id) {
			continue
		}
		ad := &linkstate.Advertisement{From: id, Costs: map[topology.NodeID]float64{}}
		for _, nb := range g.Neighbors(id) {
			if net.LinkFailed(id, nb) || net.NodeFailed(nb) {
				continue
			}
			l, _ := g.LinkBetween(id, nb)
			ad.Costs[nb] = l.Cost
		}
		if p := keys[id]; p != nil {
			ad.Sign(p)
		}
		db.Flood(ad)
	}
}
