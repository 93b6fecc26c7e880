package netsim

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/packet"
	"repro/internal/policy"
)

// Source-route admission as a compiled, metered policy program — §V-A4's
// "design for choice" taken literally: the provider's side of the
// source-routing tussle is an arbitrary stakeholder expression evaluated
// per packet on the policy VM, not a hardcoded boolean. Admission runs
// in the one forwarding kernel (Forwarder.Decide) that both a simulated
// Node and a live wire dataplane call, so the simulator and the live
// engine cannot disagree on it.
//
// Policies are TPL expressions over a fixed per-packet vocabulary,
// compiled once through the process-wide policy.DefaultCache (a million
// nodes installing the same text share one Program) and executed through
// the dense slot path with a per-invocation budget, so a hostile policy
// costs SourceRoutePolicySteps instructions and nothing more — it cannot
// stall a forwarding worker. Evaluation is fail-safe: an error or a
// non-bool result denies the source route (the packet still forwards by
// the node's own routing).

// Source-route policy vocabulary: the attributes a policy may reference.
const (
	srcAttrPaid     = "paid"              // packet carries a payment voucher
	srcAttrTTL      = "ttl"               // TTL after this hop's decrement
	srcAttrDst      = "dst-provider"      // destination provider (node id)
	srcAttrSrc      = "src-provider"      // source provider (node id)
	srcAttrWaypoint = "waypoint-provider" // current waypoint's provider
)

// srcRouteVocab maps attribute names to slot-fill codes, in the order
// fillSlots switches on.
var srcRouteVocab = map[string]uint8{
	srcAttrPaid:     0,
	srcAttrTTL:      1,
	srcAttrDst:      2,
	srcAttrSrc:      3,
	srcAttrWaypoint: 4,
}

// SourceRoutePolicySteps is the per-packet step and allocation budget
// for source-route admission. Any reasonable admission predicate runs in
// tens of steps; the cap exists for the unreasonable ones.
const SourceRoutePolicySteps = 4096

// SourceRoutePolicy is a compiled source-route admission program. The
// value is immutable and safe to share across nodes, dataplanes, and
// goroutines; callers keep their own slot scratch (NewScratch) so
// evaluation stays allocation-free.
type SourceRoutePolicy struct {
	prog  *policy.Program
	codes []uint8 // per-slot fill code, index-aligned with prog.Attrs()
}

// CompileSourceRoutePolicy compiles a TPL expression against the
// source-route vocabulary (paid, ttl, dst-provider, src-provider,
// waypoint-provider) through the shared compile cache. References
// outside the vocabulary are rejected here, at install time — the
// enforcement point's ontology is explicit, so a policy that cannot be
// supplied its attributes is refused rather than erroring per packet.
func CompileSourceRoutePolicy(src string) (*SourceRoutePolicy, error) {
	prog, err := policy.CompileText(src)
	if err != nil {
		return nil, err
	}
	attrs := prog.Attrs()
	codes := make([]uint8, len(attrs))
	var unknown []string
	for i, name := range attrs {
		code, ok := srcRouteVocab[name]
		if !ok {
			unknown = append(unknown, fmt.Sprintf("%q", name))
			continue
		}
		codes[i] = code
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("netsim: source-route policy references attributes outside the vocabulary: %s", strings.Join(unknown, ", "))
	}
	return &SourceRoutePolicy{prog: prog, codes: codes}, nil
}

// NewScratch allocates a caller-owned slot buffer for Allow. One scratch
// per evaluating goroutine (each Forwarder keeps its own).
func (p *SourceRoutePolicy) NewScratch() []policy.Value {
	return make([]policy.Value, len(p.codes))
}

// Allow evaluates the policy for one packet. tip is the decoded header
// (TTL already decremented, matching both engines' call sites); wp is
// the pending source-route waypoint. Errors — including budget
// exhaustion — deny.
func (p *SourceRoutePolicy) Allow(scratch []policy.Value, tip *packet.TIP, wp packet.Addr) bool {
	for i, code := range p.codes {
		switch code {
		case 0:
			scratch[i] = policy.Bool(tip.Payment != nil)
		case 1:
			scratch[i] = policy.Num(float64(tip.TTL))
		case 2:
			scratch[i] = policy.Num(float64(tip.Dst.Provider()))
		case 3:
			scratch[i] = policy.Num(float64(tip.Src.Provider()))
		default:
			scratch[i] = policy.Num(float64(wp.Provider()))
		}
	}
	b := policy.NewBudget(SourceRoutePolicySteps, SourceRoutePolicySteps)
	v, err := p.prog.RunSlots(scratch, &b)
	return err == nil && v.Kind == policy.KindBool && v.B
}

// UseSourceRoutePolicy installs a compiled source-route admission policy
// (see CompileSourceRoutePolicy) on the forwarder; nil clears it, and
// the forwarder then honors every source route if HonorSourceRoutes is
// set. Per-packet evaluation is fail-safe deny. The forwarder gets its own
// evaluation scratch, so one compiled policy may serve many forwarders.
func (f *Forwarder) UseSourceRoutePolicy(p *SourceRoutePolicy) {
	f.srcRoutePolicy, f.srcRouteSlots = p, nil
	if p != nil {
		f.srcRouteSlots = p.NewScratch()
	}
}
