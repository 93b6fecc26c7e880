package naming

import (
	"strings"

	"repro/internal/packet"
	"repro/internal/sim"
)

// AuthServer is an authoritative server for one zone in a delegation
// hierarchy. Names are label sequences joined by '.', most-specific
// first ("www.shop.example"); the hierarchy is walked from the rightmost
// label.
type AuthServer struct {
	// records are terminal bindings within this zone.
	records map[string]packet.Addr
	// children are delegations, by label.
	children map[string]*AuthServer
}

// NewRoot creates an empty root server.
func NewRoot() *AuthServer {
	return &AuthServer{records: map[string]packet.Addr{}, children: map[string]*AuthServer{}}
}

// Delegate creates (or returns) the child zone for label.
func (s *AuthServer) Delegate(label string) *AuthServer {
	if c, ok := s.children[label]; ok {
		return c
	}
	c := NewRoot()
	s.children[label] = c
	return c
}

// Bind registers a terminal name in this zone.
func (s *AuthServer) Bind(label string, addr packet.Addr) {
	s.records[label] = addr
}

// Resolver performs iterative resolution with a TTL cache — the
// realistic substrate under the §VI-A observation that
// mature-application "enhancement" (caches, kludges) accumulates in the
// network.
type Resolver struct {
	Root *AuthServer
	// TTL is how long cache entries live.
	TTL sim.Time
	// Clock supplies the current simulated time.
	Clock func() sim.Time

	cache map[string]cacheEntry
}

type cacheEntry struct {
	addr    packet.Addr
	expires sim.Time
}

// NewResolver creates a resolver over the hierarchy rooted at root.
func NewResolver(root *AuthServer, ttl sim.Time, clock func() sim.Time) *Resolver {
	return &Resolver{Root: root, TTL: ttl, Clock: clock, cache: map[string]cacheEntry{}}
}

// Resolve looks up a dotted name ("www.shop.example"), walking the
// delegation hierarchy right-to-left.
func (r *Resolver) Resolve(name string) (packet.Addr, bool) {
	now := r.Clock()
	if e, ok := r.cache[name]; ok && e.expires > now {
		return e.addr, true
	}
	labels := strings.Split(name, ".")
	srv := r.Root
	// Walk zones from the rightmost label down to (but excluding) the
	// leftmost, which is the terminal record.
	for i := len(labels) - 1; i >= 1; i-- {
		child, ok := srv.children[labels[i]]
		if !ok {
			return packet.AddrNone, false
		}
		srv = child
	}
	addr, ok := srv.records[labels[0]]
	if !ok {
		return packet.AddrNone, false
	}
	r.cache[name] = cacheEntry{addr: addr, expires: now + r.TTL}
	return addr, true
}

// Invalidate drops a cached name (used when a host renumbers — the
// dynamic-update mechanism of §V-A1 that weakens provider lock-in).
func (r *Resolver) Invalidate(name string) {
	delete(r.cache, name)
}
