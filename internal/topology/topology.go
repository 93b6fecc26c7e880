// Package topology models the provider-level structure of the simulated
// internetwork: autonomous systems (ISPs and stub networks) connected by
// links that carry an explicit business relationship — customer/provider
// or peer — in the style of Gao–Rexford. The business relationships are
// what make routing a tussle space (§V-A of the paper): they determine
// which paths a provider is *willing* to announce, as distinct from which
// paths exist. The package also holds the one adjacency every reader of
// a graph walks (Adjacency) and the one shortest-path search that every
// router in the repository runs (ShortestPaths).
package topology

import (
	"fmt"
	"slices"

	"repro/internal/sim"
)

// NodeID identifies an autonomous system. In the default addressing mode
// it doubles as the provider number in packet addresses (16 usable bits);
// wide-addressing simulations (netsim.WideAddressing) treat the full
// 32-bit packet address as the node number, so ISP-scale topologies of
// 10^5–10^6 nodes are addressable without changing the wire format.
type NodeID uint32

// Kind classifies a node's role.
type Kind uint8

// Node kinds.
const (
	// Transit is an ISP that carries traffic for others.
	Transit Kind = iota
	// Stub is an edge network (enterprise, residential aggregate) that
	// originates and sinks traffic but does not provide transit.
	Stub
)

func (k Kind) String() string {
	if k == Transit {
		return "transit"
	}
	return "stub"
}

// Relationship is the business relationship on a link, from the
// perspective of the lower-numbered endpoint ("A").
type Relationship uint8

// Link relationships.
const (
	// CustomerOf: A is a customer of B (B provides transit to A).
	CustomerOf Relationship = iota
	// PeerOf: A and B are settlement-free peers.
	PeerOf
)

func (r Relationship) String() string {
	if r == CustomerOf {
		return "customer-of"
	}
	return "peer-of"
}

// Link is an inter-AS adjacency.
type Link struct {
	A, B NodeID
	Rel  Relationship
	// Latency is the one-way propagation delay.
	Latency sim.Time
	// Cost is the IGP-style metric used by link-state routing. It is
	// public by construction in a link-state world (§IV-C: "a link-state
	// routing protocol requires that everyone export his link costs").
	Cost float64
}

// Node is one autonomous system.
type Node struct {
	Kind Kind
	// Tier is 1 for the core clique, higher for regional/stub tiers.
	Tier int
}

// Graph is the AS-level topology. Its structure is read through one
// frozen Adjacency (see Freeze), built on the first read and rebuilt on
// the first read after AddNode or AddLink; once built, reads are safe
// from several goroutines but never concurrently with AddNode or AddLink.
type Graph struct {
	Nodes map[NodeID]*Node
	Links []Link
	adj   *Adjacency
}

// NewGraph returns an empty topology.
func NewGraph() *Graph {
	return &Graph{Nodes: make(map[NodeID]*Node)}
}

// AddNode inserts a node; it panics on duplicate IDs (topology bugs should
// fail loudly at construction).
func (g *Graph) AddNode(id NodeID, kind Kind, tier int) *Node {
	n := &Node{Kind: kind, Tier: tier}
	g.addNode(id, n)
	return n
}

// addNode inserts the node n under id, with AddNode's checks, for
// generators that allocate their nodes together.
func (g *Graph) addNode(id NodeID, n *Node) {
	if _, dup := g.Nodes[id]; dup {
		panic(fmt.Sprintf("topology: duplicate node %d", id))
	}
	g.Nodes[id] = n
}

// AddLink connects two existing nodes. rel is from a's perspective:
// AddLink(a, b, CustomerOf, ...) means a buys transit from b.
func (g *Graph) AddLink(a, b NodeID, rel Relationship, latency sim.Time, cost float64) {
	if _, ok := g.Nodes[a]; !ok {
		panic(fmt.Sprintf("topology: link references unknown node %d", a))
	}
	if _, ok := g.Nodes[b]; !ok {
		panic(fmt.Sprintf("topology: link references unknown node %d", b))
	}
	if a == b {
		panic("topology: self-link")
	}
	g.Links = append(g.Links, Link{A: a, B: b, Rel: rel, Latency: latency, Cost: cost})
}

// Neighbors returns the IDs adjacent to id in ascending order, once per
// link, so a neighbour joined by two links appears twice. The slice is
// the frozen adjacency's row: callers iterate it but must not modify it.
func (g *Graph) Neighbors(id NodeID) []NodeID {
	nbr, _ := g.Freeze().Row(id)
	return nbr
}

// LinkBetween returns the link between a and b, if any; between nodes
// joined by several links, the one added first.
func (g *Graph) LinkBetween(a, b NodeID) (Link, bool) {
	_, li := g.Freeze().LinkIndex(a, b)
	if li < 0 {
		return Link{}, false
	}
	return g.Links[li], true
}

// RelFrom reports the relationship of the a→b edge from a's perspective:
// what b is to a. The second return is false when no link exists.
func (g *Graph) RelFrom(a, b NodeID) (NeighborClass, bool) {
	l, ok := g.LinkBetween(a, b)
	if !ok {
		return 0, false
	}
	switch {
	case l.Rel == PeerOf:
		return Peer, true
	case l.A == a && l.Rel == CustomerOf:
		return Provider, true // a is customer of b => b is a's provider
	default:
		return Customer, true // b is a's customer
	}
}

// NeighborClass is what a neighbor is to this node.
type NeighborClass uint8

// Neighbor classes from the local node's perspective.
const (
	Customer NeighborClass = iota
	Peer
	Provider
)

func (c NeighborClass) String() string {
	switch c {
	case Customer:
		return "customer"
	case Peer:
		return "peer"
	default:
		return "provider"
	}
}

// Providers returns the IDs this node buys transit from.
func (g *Graph) Providers(id NodeID) []NodeID {
	var out []NodeID
	for _, n := range g.Neighbors(id) {
		if c, ok := g.RelFrom(id, n); ok && c == Provider {
			out = append(out, n)
		}
	}
	return out
}

// NodeIDs returns all node IDs in ascending order (deterministic
// iteration for simulations), as a fresh copy of the frozen list.
func (g *Graph) NodeIDs() []NodeID { return slices.Clone(g.Freeze().ids) }

// Stubs returns all stub node IDs in ascending order.
func (g *Graph) Stubs() []NodeID {
	var out []NodeID
	for _, id := range g.Freeze().ids {
		if g.Nodes[id].Kind == Stub {
			out = append(out, id)
		}
	}
	return out
}
