// Package fiber implements the research project §V-A3 of the paper
// explicitly calls for: "design and demonstrate a fiber-based
// residential access facility that supports competition in higher-level
// services. Technical questions include whether sharing should be in
// the time domain (packets) or color domain, how the fairness of
// sharing can be enforced and verified, an approach to fault isolation
// and other operational issues, and how incremental upgrades can be
// done."
//
// The facility multiplexes several retail ISPs over one municipal
// fiber. Two sharing designs are modeled:
//
//   - TDM: packets from all ISPs share the fiber under weighted fair
//     queueing; fairness is enforced by the scheduler and verified by
//     per-ISP accounting; capacity upgrades are fractional; the shared
//     scheduler is a single point of failure for every tenant.
//   - WDM: each ISP gets its own wavelength; fairness is physical (no
//     enforcement needed); upgrades come in whole-lambda quanta; a
//     lambda serves exactly one ISP.
//
// Fault isolation is structural: BlastRadius counts the tenants that
// share each design's characteristic point of failure. The model
// injects no fault, so Measure always runs the fault-free plant.
package fiber

import (
	"fmt"

	"repro/internal/qos"
	"repro/internal/sim"
)

// Domain selects the sharing design.
type Domain uint8

// Sharing domains.
const (
	// TDM shares in the time domain: packet scheduling.
	TDM Domain = iota
	// WDM shares in the color domain: one wavelength per ISP.
	WDM
)

func (d Domain) String() string {
	if d == TDM {
		return "tdm"
	}
	return "wdm"
}

// Tenant is one retail ISP on the facility.
type Tenant struct {
	Name string
	// Entitlement is the contracted share of facility capacity
	// (fractions summing to <= 1 across tenants).
	Entitlement float64
	// Demand is offered load in bytes/second.
	Demand float64
	// Cheats marks a tenant that offers far beyond its entitlement,
	// hoping to grab unenforced capacity.
	Cheats bool

	// Delivered is measured throughput (bytes/second), set by Measure.
	Delivered float64
}

// Facility is the shared access plant.
type Facility struct {
	// Capacity is total fiber capacity in bytes/second (per lambda
	// times lambda count for WDM).
	Capacity float64
	Domain   Domain
	Tenants  []*Tenant

	// LambdaCapacity is the per-wavelength capacity for WDM; the
	// number of lambdas is Capacity/LambdaCapacity.
	LambdaCapacity float64
}

// New builds a facility.
func New(capacity float64, domain Domain, lambdaCapacity float64, tenants ...*Tenant) *Facility {
	return &Facility{
		Capacity: capacity, Domain: domain,
		LambdaCapacity: lambdaCapacity,
		Tenants:        tenants,
	}
}

// Measure computes each tenant's delivered throughput under the current
// design and demands. It returns the total delivered.
func (f *Facility) Measure() float64 {
	switch f.Domain {
	case WDM:
		return f.measureWDM()
	default:
		return f.measureTDM()
	}
}

func (f *Facility) measureWDM() float64 {
	total := 0.0
	for _, t := range f.Tenants {
		// Physical isolation: a tenant gets min(demand, its lambda).
		// Entitlement maps to whole lambdas.
		lambdas := t.Entitlement * f.Capacity / f.LambdaCapacity
		capacity := float64(int(lambdas+0.5)) * f.LambdaCapacity
		got := t.Demand
		if got > capacity {
			got = capacity
		}
		t.Delivered = got
		total += got
	}
	return total
}

func (f *Facility) measureTDM() float64 {
	// Weighted max-min fair allocation by entitlement.
	type ent struct {
		t *Tenant
		w float64
	}
	var ents []ent
	for _, t := range f.Tenants {
		ents = append(ents, ent{t, t.Entitlement})
	}
	remaining := f.Capacity
	demands := make([]float64, len(ents))
	for i, e := range ents {
		demands[i] = e.t.Demand
	}
	alloc := make([]float64, len(ents))
	active := make([]bool, len(ents))
	liveWeight := 0.0
	for i := range ents {
		active[i] = true
		liveWeight += ents[i].w
	}
	for remaining > 1e-9 && liveWeight > 0 {
		progress := false
		for i, e := range ents {
			if !active[i] {
				continue
			}
			share := remaining * e.w / liveWeight
			if demands[i]-alloc[i] <= share {
				remaining -= demands[i] - alloc[i]
				alloc[i] = demands[i]
				active[i] = false
				liveWeight -= e.w
				progress = true
			}
		}
		if !progress {
			for i, e := range ents {
				if active[i] {
					alloc[i] += remaining * e.w / liveWeight
				}
			}
			remaining = 0
		}
	}
	total := 0.0
	for i, e := range ents {
		e.t.Delivered = alloc[i]
		total += alloc[i]
	}
	return total
}

// BlastRadius reports how many tenants a single fault would take out
// under the design's characteristic failure: a per-domain count, not a
// measurement of an injected fault.
func (f *Facility) BlastRadius() int {
	if f.Domain == WDM {
		return 1 // one lambda, one tenant
	}
	return len(f.Tenants) // the shared scheduler
}

// DelaySim runs a packet-level check of TDM fairness using the WFQ
// scheduler from internal/qos: each tenant maps to a class with weight
// proportional to entitlement (supports up to qos.NumClasses tenants).
// It returns mean delay per tenant, demonstrating that enforcement
// holds at packet granularity, not just in fluid-flow accounting.
func (f *Facility) DelaySim(rng *sim.RNG, packets int) (map[string]sim.Time, error) {
	if len(f.Tenants) > qos.NumClasses {
		return nil, fmt.Errorf("fiber: DelaySim supports at most %d tenants", qos.NumClasses)
	}
	link := qos.NewLinkSim(f.Capacity, qos.WFQ)
	for i, t := range f.Tenants {
		link.Weights[i] = t.Entitlement
	}
	// Offer load proportional to demand.
	totalDemand := 0.0
	for _, t := range f.Tenants {
		totalDemand += t.Demand
	}
	for p := 0; p < packets; p++ {
		x := rng.Float64() * totalDemand
		idx := 0
		for i, t := range f.Tenants {
			x -= t.Demand
			if x < 0 {
				idx = i
				break
			}
		}
		link.Add(qos.Class(idx), 1000, sim.Time(rng.Intn(1000))*sim.Microsecond)
	}
	link.Run()
	delays := link.MeanDelayByClass()
	out := map[string]sim.Time{}
	for i, t := range f.Tenants {
		out[t.Name] = delays[i]
	}
	return out, nil
}
