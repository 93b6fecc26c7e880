// Package naming implements the name system of the simulated
// internetwork and the §IV-A case study around it. The paper's diagnosis:
// DNS is "entangled in debate because DNS names are used both to name
// machines and to express trademark", and the fix is tussle isolation —
// "separate strategies to deal with the issues of trademark, naming
// mailbox services, and providing names for machines."
//
// The package therefore supports two registry designs over the same
// record machinery:
//
//   - Entangled: one namespace; a trademark dispute that suspends a name
//     also breaks the machine and mailbox bindings under it.
//   - Isolated: three namespaces (machine, mailbox, brand); disputes are
//     confined to the brand space, and machine names are meaningless
//     tokens with no trademark value.
//
// A hierarchical resolver with TTL caching sits on top, so experiments
// can also measure resolution load and the effect of kludges.
package naming

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/packet"
)

// Space is a namespace within the isolated design.
type Space string

// Namespaces of the isolated design. The entangled design collapses all
// three into SpaceAll.
const (
	SpaceMachine Space = "machine"
	SpaceMailbox Space = "mailbox"
	SpaceBrand   Space = "brand"
	SpaceAll     Space = "all"
)

// Record binds a name to an address and an owner.
type Record struct {
	Name  string
	Owner string
	Addr  packet.Addr
	// Suspended marks a record disabled by a dispute ruling.
	Suspended bool
}

// Registry errors.
var (
	ErrTaken     = errors.New("naming: name already registered")
	ErrNotFound  = errors.New("naming: no such name")
	ErrSuspended = errors.New("naming: name suspended by dispute")
)

// Registry is the name store, in either the entangled or the isolated
// design.
type Registry struct {
	// Isolated selects the tussle-isolated three-namespace design.
	Isolated bool

	spaces map[Space]map[string]*Record
}

// NewRegistry creates a registry in the chosen design.
func NewRegistry(isolated bool) *Registry {
	return &Registry{
		Isolated: isolated,
		spaces:   map[Space]map[string]*Record{},
	}
}

func (r *Registry) space(s Space) map[string]*Record {
	if !r.Isolated {
		s = SpaceAll
	}
	m, ok := r.spaces[s]
	if !ok {
		m = map[string]*Record{}
		r.spaces[s] = m
	}
	return m
}

// Register binds name to addr under owner in the given space. In the
// entangled design the space argument is advisory only — everything
// shares one namespace, so a machine name can collide with a brand.
func (r *Registry) Register(s Space, name, owner string, addr packet.Addr) (*Record, error) {
	m := r.space(s)
	if _, taken := m[name]; taken {
		return nil, fmt.Errorf("%w: %q", ErrTaken, name)
	}
	rec := &Record{Name: name, Owner: owner, Addr: addr}
	m[name] = rec
	return rec, nil
}

// Resolve returns the address bound to name in the given space.
func (r *Registry) Resolve(s Space, name string) (packet.Addr, error) {
	rec, ok := r.space(s)[name]
	if !ok {
		return packet.AddrNone, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if rec.Suspended {
		return packet.AddrNone, fmt.Errorf("%w: %q", ErrSuspended, name)
	}
	return rec.Addr, nil
}

// Dispute is a trademark claim: holder asserts rights over any name
// matching mark.
type Dispute struct {
	Mark   string
	Holder string
}

// defaultMatch reports whether a registered name infringes the mark.
// The simulated standard: the name contains the mark as a label or
// prefix.
func defaultMatch(name, mark string) bool {
	return name == mark || strings.HasPrefix(name, mark+".") ||
		strings.HasPrefix(name, mark+"-") || strings.HasSuffix(name, "."+mark)
}

// Ruling summarizes the outcome of a dispute.
type Ruling struct {
	// Suspended lists records suspended by the ruling.
	Suspended []string
	// Collateral counts suspensions that hit machine/mailbox bindings
	// rather than brand uses — the spillover the isolated design
	// prevents.
	Collateral int
}

// FileDispute applies a trademark ruling. In the isolated design only
// the brand space is examined; machine and mailbox names are outside
// trademark's reach by construction. In the entangled design every
// matching name in the single namespace is suspended unless owned by the
// holder, and each suspension of a non-brand use is collateral damage.
func (r *Registry) FileDispute(d Dispute, brandOwnership map[string]string) Ruling {
	var ruling Ruling
	apply := func(rec *Record, isBrandUse bool) {
		if rec.Owner == d.Holder || rec.Suspended {
			return
		}
		rec.Suspended = true
		ruling.Suspended = append(ruling.Suspended, rec.Name)
		if !isBrandUse {
			ruling.Collateral++
		}
	}
	if r.Isolated {
		for _, rec := range r.spaces[SpaceBrand] {
			if defaultMatch(rec.Name, d.Mark) {
				apply(rec, true)
			}
		}
		return ruling
	}
	for name, rec := range r.spaces[SpaceAll] {
		if defaultMatch(name, d.Mark) {
			// In the entangled design we cannot tell a brand use from a
			// machine name except by asking the registrant's intent,
			// recorded in brandOwnership (name -> claimed use).
			isBrand := brandOwnership[name] == "brand"
			apply(rec, isBrand)
		}
	}
	return ruling
}
