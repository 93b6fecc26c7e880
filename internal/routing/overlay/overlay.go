// Package overlay implements a RON-style resilient overlay network: a set
// of member nodes that tunnel traffic through each other to obtain paths
// the underlay will not provide — whether because of failures, or because
// providers restrict routing. §V-A4 of the paper: "researchers propose
// even more indirect ways of getting around provider-selected routing,
// such as exploiting hosts as intermediate forwarding agents. (This kind
// of overlay network is a tool in the tussle, certainly.)"
//
// Route picks relays with the shortest-path search every router in the
// repository shares (topology.ShortestPaths) over the mesh's measured
// latencies, so equal-latency ties always resolve the same way.
//
// The economic distortion the paper points out — overlay relaying makes a
// provider carry traffic it was never compensated to carry — is measured
// by counting relayed bytes that cross providers outside their business
// relationships; see UncompensatedTransit.
package overlay

import (
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Mesh is an overlay over a set of member nodes. Route reuses one
// search, so a Mesh must not be shared across goroutines.
type Mesh struct {
	// lat[a][b] is the measured underlay latency a→b; absence means the
	// underlay path is unusable (blocked or failed).
	lat map[topology.NodeID]map[topology.NodeID]sim.Time
	// RelayedBytes counts bytes forwarded on behalf of other members.
	RelayedBytes int

	search topology.ShortestPaths // reused by every Route
}

// NewMesh creates an overlay with no measurements; its members are the
// nodes Observe gives edges and InstallRelay gives relays.
func NewMesh() *Mesh {
	return &Mesh{lat: make(map[topology.NodeID]map[topology.NodeID]sim.Time)}
}

// Observe records a latency measurement for the direct underlay path a→b.
func (m *Mesh) Observe(a, b topology.NodeID, l sim.Time) {
	if m.lat[a] == nil {
		m.lat[a] = make(map[topology.NodeID]sim.Time)
	}
	m.lat[a][b] = l
}

// Route computes the lowest-latency overlay path src→dst over working
// measured edges, with latencies weighed in seconds. Equal-latency ties
// go to the lower NodeID (see topology.ShortestPaths), so one set of
// measurements always yields one path. The returned slice includes src
// and dst; nil means unreachable even via relays.
func (m *Mesh) Route(src, dst topology.NodeID) []topology.NodeID {
	sp := &m.search
	sp.Reset(src)
	for u, _, ok := sp.Next(); ok; u, _, ok = sp.Next() {
		if u == dst {
			return sp.Path(dst)
		}
		for v, l := range m.lat[u] {
			sp.Relax(v, l.Seconds())
		}
	}
	return nil
}

// TunnelID used by overlay encapsulation.
const TunnelID = 0x4f4e // "ON"

// Encapsulate wraps inner packet bytes for relay via hop: the outer
// packet is addressed to the relay, carrying the original as a tunnel
// payload.
func Encapsulate(src, relay packet.Addr, ttl uint8, inner []byte) ([]byte, error) {
	return packet.Serialize(
		&packet.TIP{TTL: ttl, Proto: packet.LayerTypeTunnel, Src: src, Dst: relay},
		&packet.Tunnel{Inner: packet.LayerTypeTIP, ID: TunnelID},
		&packet.Raw{Data: inner})
}

// InstallRelay configures node id to decapsulate overlay tunnels and
// re-inject the inner packet, chaining to fallthrough delivery for
// non-tunnel traffic. It returns the mesh-byte accounting hook.
func (m *Mesh) InstallRelay(net *netsim.Network, id topology.NodeID) {
	nd := net.Node(id)
	inner := nd.Deliver
	nd.Deliver = func(n *netsim.Node, tr *netsim.Trace, data []byte) {
		p := packet.NewPacket(data, packet.LayerTypeTIP)
		tun, _ := p.Layer(packet.LayerTypeTunnel).(*packet.Tunnel)
		if tun == nil || tun.ID != TunnelID {
			if inner != nil {
				inner(n, tr, data)
			}
			return
		}
		payload := tun.LayerPayload()
		m.RelayedBytes += len(payload)
		fresh := make([]byte, len(payload))
		copy(fresh, payload)
		net.Send(id, fresh)
	}
}

// UncompensatedTransit estimates the economic distortion of overlay
// relaying: bytes whose underlay carriage was triggered by a relay member
// rather than by a customer relationship. In this simplified accounting
// every relayed byte is uncompensated (the relay's providers sold it
// access, not transit service for third parties).
func (m *Mesh) UncompensatedTransit() int { return m.RelayedBytes }
