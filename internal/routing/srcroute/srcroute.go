// Package srcroute implements user-controlled provider-level source
// routing, the mechanism §V-A4 of the paper recommends the Internet
// should support: "a mechanism for choice such as source routing that
// would permit a customer to control the path of his packets at the level
// of providers."
//
// The paper lists the hard sub-problems of such a design, and this
// package addresses each:
//
//   - "where these user-selected routes come from": Discover enumerates
//     candidate provider paths from the (public) topology map, and
//     DisjointPaths extracts link-disjoint ones by successive runs of the
//     shortest-path search every router shares (topology.ShortestPaths);
//   - "how failures are managed": Verify compares the requested path with
//     the path actually taken (from the simulator trace), so senders can
//     fail over to the next candidate;
//   - "how the user knows that the traffic actually took the desired
//     route": Verify again;
//   - "recognition of the need for payment": WithPayment attaches an
//     in-band voucher covering the hops, priced per waypoint.
package srcroute

import (
	"crypto/hmac"
	"crypto/sha256"
	"slices"
	"sort"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Candidate is one provider-level path option with its advertised cost.
type Candidate struct {
	// Path is the full node sequence src..dst.
	Path []topology.NodeID
	// Latency is the summed link latency (the exposed "cost of choice"
	// from §IV-C).
	Latency sim.Time
}

// Discover enumerates up to k loop-free provider paths from src to dst,
// each at most maxLen nodes, ordered by latency. It searches the public
// topology map; in a deployed system this is the user's "up-graph" plus a
// route lookup service.
func Discover(g *topology.Graph, src, dst topology.NodeID, k, maxLen int) []Candidate {
	if maxLen <= 0 {
		maxLen = 8
	}
	adj := g.Freeze()
	var out []Candidate
	path := []topology.NodeID{src}
	var lat sim.Time
	var dfs func(cur topology.NodeID)
	dfs = func(cur topology.NodeID) {
		if cur == dst {
			cp := make([]topology.NodeID, len(path))
			copy(cp, path)
			out = append(out, Candidate{Path: cp, Latency: lat})
			return
		}
		if len(path) >= maxLen {
			return
		}
		nbrs, links := adj.Row(cur)
		// A neighbour joined by several links has one entry per link,
		// lowest index first, and every entry takes the first one's link,
		// the one LinkBetween returns.
		var li int32
		for i, nb := range nbrs {
			if i == 0 || nb != nbrs[i-1] {
				li = links[i]
			}
			// The path holds at most maxLen nodes: scanning it is
			// cheaper than keeping a visited set beside it.
			if slices.Contains(path, nb) {
				continue
			}
			d := g.Links[li].Latency
			path = append(path, nb)
			lat += d
			dfs(nb)
			lat -= d
			path = path[:len(path)-1]
		}
	}
	dfs(src)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Latency != out[j].Latency {
			return out[i].Latency < out[j].Latency
		}
		return len(out[i].Path) < len(out[j].Path)
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// Option converts a candidate into the wire source-route option: the
// interior waypoints, excluding the source and destination providers.
func (c Candidate) Option() *packet.SourceRouteOption {
	if len(c.Path) <= 2 {
		return nil
	}
	hops := make([]packet.Addr, 0, len(c.Path)-2)
	for _, n := range c.Path[1 : len(c.Path)-1] {
		hops = append(hops, packet.MakeAddr(uint16(n), 0))
	}
	if len(hops) > 10 {
		hops = hops[:10]
	}
	return &packet.SourceRouteOption{Hops: hops}
}

// Verify reports whether a delivered packet actually followed the
// requested candidate path. took is the node sequence from the simulator
// trace. Source routes are loose, so verification requires only that
// every requested node appears in order.
func (c Candidate) Verify(took []topology.NodeID) bool {
	i := 0
	for _, n := range took {
		if i < len(c.Path) && n == c.Path[i] {
			i++
		}
	}
	return i == len(c.Path)
}

// PerHopPriceMilli is the default per-waypoint price for source-routed
// transit, in thousandths of a unit.
const PerHopPriceMilli = 250

// WithPayment attaches a payment voucher covering the candidate's
// interior hops to a TIP header, authenticated with the payer's key.
// The returned amount is what the sender committed.
func WithPayment(tip *packet.TIP, c Candidate, payerKey []byte, nonce uint32) uint32 {
	interior := 0
	if len(c.Path) > 2 {
		interior = len(c.Path) - 2
	}
	amount := uint32(interior * PerHopPriceMilli)
	tip.Payment = &packet.PaymentOption{
		Payer:       tip.Src,
		Payee:       packet.Broadcast, // redeemable by any on-path provider
		AmountMilli: amount,
		Nonce:       nonce,
		MAC:         VoucherMAC(payerKey, tip.Src, packet.Broadcast, amount, nonce),
	}
	return amount
}

// VoucherMAC computes the authenticator for a payment voucher.
func VoucherMAC(key []byte, payer, payee packet.Addr, amount, nonce uint32) uint64 {
	mac := hmac.New(sha256.New, key)
	var buf [16]byte
	put32 := func(off int, v uint32) {
		buf[off] = byte(v >> 24)
		buf[off+1] = byte(v >> 16)
		buf[off+2] = byte(v >> 8)
		buf[off+3] = byte(v)
	}
	put32(0, uint32(payer))
	put32(4, uint32(payee))
	put32(8, amount)
	put32(12, nonce)
	mac.Write(buf[:])
	sum := mac.Sum(nil)
	var out uint64
	for i := 0; i < 8; i++ {
		out = out<<8 | uint64(sum[i])
	}
	return out
}
