// Package wire puts the TIP data plane on real UDP sockets: the "live
// wire mode" counterpart to the internal/netsim simulator. An Engine
// binds one socket per worker (SO_REUSEPORT on Linux), receives
// datagrams in batches (recvmmsg/sendmmsg where available, a portable
// single-syscall loop elsewhere), runs each through the cheap raw-byte
// sanity filter (packet.Filter) and then a Dataplane — a decoder in
// front of netsim's forwarding kernel (netsim.Forwarder.Decide), the one
// middlebox chain, source-route policy, and routing decision sequence a
// simulated node also runs — and transmits forwards and echoes in
// batches.
//
// # Zero-allocation steady state
//
// Every worker owns one slab cut into its batch of receive buffers, a
// reusable packet.TIP decode scratch (DecodeReuse), preallocated batch
// headers, and a per-reason stat table indexed by small integers — so
// the steady-state recv→filter→decide→send path performs zero heap
// allocations per packet. Drop reasons and middlebox-specific strings
// are interned at Dataplane construction, never concatenated per packet.
//
// # Determinism twin
//
// The simulator remains the deterministic twin of the live engine: for
// any datagram bytes, Dataplane.Process and netsim.Network.InjectArrival
// at the same node make the identical decision — deliver, forward to
// the same next hop, or drop with the same reason, including
// "malformed" for bytes the decoder rejects — and pass on identical
// bytes. Both call the same kernel; the differential tests in this
// package pin the two call paths and the socket path with golden byte
// streams (clean, malformed, middlebox-rewritten, source-routed), so
// the invariant machinery can convict the live engine by replaying its
// traffic through the sim.
package wire

import "repro/internal/netsim"

// Drop kinds the engine's Stats.Drops table is indexed by, for callers
// outside this package; the full set is netsim.DropKind.
const (
	DropTTL     = netsim.DropTTL
	DropBlocked = netsim.DropBlocked
)
