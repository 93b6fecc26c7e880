// Package chaos is the deterministic fault-injection engine: a Plan is
// an ordered list of timed fault events — link failures and flaps, node
// crashes, partitions, packet-level impairment, byzantine advertisement
// bursts — replayed onto a netsim.Network through the shared event
// scheduler. Every random choice (impairment coin flips, flap phase)
// comes from a single seeded RNG owned by the engine, so a plan replayed
// at the same seed produces a byte-identical simulation: the same
// contract the experiment suite already holds (§ determinism in
// DESIGN.md).
//
// The paper's §VI-A is the motivation: "failures of transparency will
// occur — design what happens then". The engine supplies the failures;
// the observers registered on it (the routing Rerouter in reroute.go,
// the invariant checker) and the per-packet netsim traces that record
// where and why traffic died are the "design what happens then".
package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Kind names a fault event type. The string values are the JSON schema.
type Kind string

// Fault event kinds.
const (
	// LinkDown / LinkUp fail and restore the A–B link.
	LinkDown Kind = "link-down"
	LinkUp   Kind = "link-up"
	// LinkFlap toggles the A–B link Count times (down, up, down, ...)
	// spaced Period apart, starting at the event time.
	LinkFlap Kind = "link-flap"
	// NodeCrash / NodeRecover crash and recover router Node.
	NodeCrash   Kind = "node-crash"
	NodeRecover Kind = "node-recover"
	// Partition fails every link with exactly one endpoint in Group,
	// bipartitioning the network; Heal undoes the most recent partition
	// (they nest like a stack).
	Partition Kind = "partition"
	Heal      Kind = "heal"
	// Impair installs packet-level damage on the A–B link (corruption,
	// duplication, reorder jitter); ClearImpair removes it.
	Impair      Kind = "impair"
	ClearImpair Kind = "clear-impair"
	// ByzantineBurst floods Count lying advertisements from Node into
	// the bound AdDatabase: every adjacent link at cost Cost, plus
	// phantom links to the Phantoms nodes.
	ByzantineBurst Kind = "byzantine-burst"
)

// Event is one timed fault. Which fields matter depends on Kind; see the
// Kind constants. Times are milliseconds of simulation time so plans are
// human-writable JSON.
type Event struct {
	AtMs float64 `json:"at_ms"`
	Kind Kind    `json:"kind"`

	A     topology.NodeID   `json:"a,omitempty"`
	B     topology.NodeID   `json:"b,omitempty"`
	Node  topology.NodeID   `json:"node,omitempty"`
	Group []topology.NodeID `json:"group,omitempty"`

	PeriodMs float64 `json:"period_ms,omitempty"`
	Count    int     `json:"count,omitempty"`

	Corrupt         float64 `json:"corrupt,omitempty"`
	Duplicate       float64 `json:"duplicate,omitempty"`
	ReorderProb     float64 `json:"reorder_prob,omitempty"`
	ReorderJitterMs float64 `json:"reorder_jitter_ms,omitempty"`

	Cost     float64           `json:"cost,omitempty"`
	Phantoms []topology.NodeID `json:"phantoms,omitempty"`
}

// At returns the event's simulation time.
func (e *Event) At() sim.Time { return msToTime(e.AtMs) }

// Period returns the flap interval as simulation time.
func (e *Event) Period() sim.Time { return msToTime(e.PeriodMs) }

func msToTime(ms float64) sim.Time { return sim.Time(ms * float64(sim.Millisecond)) }

// Plan is a named, seeded fault schedule.
type Plan struct {
	Name string `json:"name"`
	// Seed drives every random choice the engine makes while replaying
	// the plan (impairment coin flips). Replays at the same seed are
	// byte-identical.
	Seed   uint64  `json:"seed"`
	Events []Event `json:"events"`
}

// ParsePlan decodes and validates a JSON plan. The decoder is strict
// (unknown fields are errors) so schema typos fail loudly instead of
// silently injecting nothing.
func ParsePlan(data []byte) (*Plan, error) {
	var p Plan
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("chaos: parse plan: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("chaos: parse plan: trailing data after plan object")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Encode renders the plan as canonical indented JSON. Encode∘ParsePlan
// is a fixed point: parsing the output and re-encoding reproduces it
// byte for byte (the FuzzFaultPlan invariant).
func (p *Plan) Encode() ([]byte, error) {
	buf, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("chaos: encode plan: %w", err)
	}
	return append(buf, '\n'), nil
}

// Validate checks every event's fields for its kind. It does not check
// topology references (the engine does that at schedule time, when it
// has the graph).
func (p *Plan) Validate() error {
	for i := range p.Events {
		if err := p.Events[i].validate(); err != nil {
			return fmt.Errorf("chaos: event %d (%s): %w", i, p.Events[i].Kind, err)
		}
	}
	return nil
}

func (e *Event) validate() error {
	if !finite(e.AtMs) || e.AtMs < 0 {
		return fmt.Errorf("at_ms %v out of range", e.AtMs)
	}
	needLink := func() error {
		if e.A == 0 || e.B == 0 || e.A == e.B {
			return fmt.Errorf("needs distinct link endpoints a/b, got %d/%d", e.A, e.B)
		}
		return nil
	}
	switch e.Kind {
	case LinkDown, LinkUp, ClearImpair:
		return needLink()
	case LinkFlap:
		if err := needLink(); err != nil {
			return err
		}
		if !finite(e.PeriodMs) || e.PeriodMs <= 0 {
			return fmt.Errorf("flap needs period_ms > 0, got %v", e.PeriodMs)
		}
		if e.Count < 1 {
			return fmt.Errorf("flap needs count >= 1, got %d", e.Count)
		}
	case NodeCrash, NodeRecover:
		if e.Node == 0 {
			return fmt.Errorf("needs node")
		}
	case Partition:
		if len(e.Group) == 0 {
			return fmt.Errorf("needs a non-empty group")
		}
	case Heal:
		// no fields
	case Impair:
		if err := needLink(); err != nil {
			return err
		}
		for _, pr := range []struct {
			name string
			v    float64
		}{{"corrupt", e.Corrupt}, {"duplicate", e.Duplicate}, {"reorder_prob", e.ReorderProb}} {
			if !finite(pr.v) || pr.v < 0 || pr.v > 1 {
				return fmt.Errorf("%s %v outside [0,1]", pr.name, pr.v)
			}
		}
		if e.Corrupt == 0 && e.Duplicate == 0 && e.ReorderProb == 0 {
			return fmt.Errorf("impair with no effect: set corrupt, duplicate, or reorder_prob")
		}
		if !finite(e.ReorderJitterMs) || e.ReorderJitterMs < 0 {
			return fmt.Errorf("reorder_jitter_ms %v out of range", e.ReorderJitterMs)
		}
		if e.ReorderProb > 0 && e.ReorderJitterMs == 0 {
			return fmt.Errorf("reorder_prob without reorder_jitter_ms does nothing")
		}
	case ByzantineBurst:
		if e.Node == 0 {
			return fmt.Errorf("needs node")
		}
		if e.Count < 1 {
			return fmt.Errorf("burst needs count >= 1, got %d", e.Count)
		}
		if !finite(e.Cost) || e.Cost <= 0 {
			return fmt.Errorf("burst needs cost > 0, got %v", e.Cost)
		}
	default:
		return fmt.Errorf("unknown kind")
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
