// Secure transfer: the whole stack in one flow. Alice and Bob verify
// each other's certified identities, run an X25519 key agreement, and
// move a file reliably (sliding-window ARQ) across a lossy path with a
// wiretap on it — then the tap reports what it managed to read, which
// for the session body is nothing. "The ultimate defense of the
// end-to-end mode is end-to-end encryption" (§VI-A).
//
// Run with: go run ./examples/secure_transfer
package main

import (
	"bytes"
	"fmt"
	"os"

	"repro/internal/middlebox"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/transport/multipath"
	"repro/internal/trust"
)

func main() {
	// Network: alice (1) — transit (2, lossy + tapped) — bob (3).
	sched := sim.NewScheduler()
	g := topology.Linear(3, sim.Millisecond)
	net := netsim.New(sched, g)
	for id := topology.NodeID(1); id <= 3; id++ {
		id := id
		net.Node(id).Route = func(dst packet.Addr, tip *packet.TIP) (topology.NodeID, bool) {
			d := topology.NodeID(dst.Provider())
			switch {
			case d > id:
				return id + 1, true
			case d < id:
				return id - 1, true
			}
			return id, true
		}
	}
	rng := sim.NewRNG(2026)
	tap := &middlebox.Wiretap{Label: "intercept"}
	net.Node(2).AddMiddlebox(tap)
	transport.InstallLossyLink(net, 2, 0.2, rng)

	// Identity: a root CA certifies both parties.
	root := trust.NewPrincipal("root-ca", trust.Certified, rng)
	alice := trust.NewPrincipal("alice", trust.Certified, rng)
	bob := trust.NewPrincipal("bob", trust.Certified, rng)
	anchors := trust.Anchors{"root-ca": root.Pub}
	epA := &trust.Endpoint{Principal: alice, Anchors: anchors, RequireCertified: true,
		Chain: []*trust.Certificate{trust.Issue(root, "alice", alice.Pub, nil, 1000*sim.Second)}}
	epB := &trust.Endpoint{Principal: bob, Anchors: anchors, RequireCertified: true,
		Chain: []*trust.Certificate{trust.Issue(root, "bob", bob.Pub, nil, 1000*sim.Second)}}

	keyA, keyB, err := trust.Establish(epA, epB, rng, 10*sim.Second)
	if err != nil {
		fmt.Fprintln(os.Stderr, "handshake:", err)
		os.Exit(1)
	}
	fmt.Printf("handshake: certified identities verified, session key agreed (%d bytes, keys match: %v)\n",
		len(keyA), bytes.Equal(keyA, keyB))

	// Alice seals the file under the session key, then ships the
	// ciphertext reliably over the lossy, tapped path.
	file := bytes.Repeat([]byte("all watched over by machines of loving grace\n"), 200)
	c := &packet.Crypto{KeyID: 1, Nonce: 99}
	c.Seal(keyA, file, packet.LayerTypeRaw)
	ciphertext, err := packet.Serialize(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("file: %d bytes plaintext -> %d bytes sealed\n", len(file), len(ciphertext))

	cfg := multipath.DefaultConfig()
	cfg.Window = 8
	cfg.ContentType = packet.LayerTypeCrypto // declare the stream content honestly
	// Bob's receiver streams the reassembled ciphertext into received.
	var received bytes.Buffer
	stats, _ := multipath.Transfer(net, multipath.Routed{}, 1, 3, 9000, ciphertext, cfg, &received)
	if !stats.Done {
		fmt.Fprintln(os.Stderr, "transfer failed")
		os.Exit(1)
	}
	fmt.Printf("transfer: %d segments, %d sent (%d retransmissions over the 20%%-lossy link), %v elapsed\n",
		stats.Segments, stats.Sent, stats.Retransmissions, stats.Elapsed)

	// Bob reassembles and decrypts.
	var cr packet.Crypto
	if err := cr.DecodeFrom(received.Bytes()); err != nil {
		fmt.Fprintln(os.Stderr, "bob decode:", err)
		os.Exit(1)
	}
	plain, err := cr.Open(keyB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bob decrypt:", err)
		os.Exit(1)
	}
	fmt.Printf("bob: decrypted %d bytes, intact: %v\n", len(plain), bytes.Equal(plain, file))

	// What did the tap get?
	readable := 0
	for _, cap := range tap.Captured {
		if cap.Readable {
			readable++
		}
	}
	fmt.Printf("wiretap: captured %d packets; readable %d (handshake + bare ACKs), opaque %d (the file itself)\n",
		len(tap.Captured), readable, len(tap.Captured)-readable)
	fmt.Println(`("privacy through technology" works here — but the paper's point stands:`)
	fmt.Println(` the tussle then moves to whether encrypted carriage is permitted at all; see E10)`)
}
