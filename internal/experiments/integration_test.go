package experiments

// Integration tests exercising whole-stack flows that no single package
// covers: the §VI-A story end to end — identity handshake over the
// simulated network, encrypted session traffic past a wiretap, and the
// visibility compromise.

import (
	"bytes"
	"testing"

	"repro/internal/middlebox"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trust"
)

// lineNet builds a 3-node line with routing: 1 (alice) - 2 (transit,
// where the tap sits) - 3 (bob).
func lineNet(t *testing.T) (*netsim.Network, *sim.Scheduler) {
	t.Helper()
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
	return net, sched
}

func TestSecureSessionOverNetworkPastWiretap(t *testing.T) {
	net, sched := lineNet(t)
	tap := &middlebox.Wiretap{Label: "lawful-intercept"}
	net.Node(2).AddMiddlebox(tap)

	// PKI and endpoints.
	rng := sim.NewRNG(1)
	root := trust.NewPrincipal("root-ca", trust.Certified, rng)
	alice := trust.NewPrincipal("alice", trust.Certified, rng)
	bob := trust.NewPrincipal("bob", trust.Certified, rng)
	anchors := trust.Anchors{"root-ca": root.Pub}
	epA := &trust.Endpoint{Principal: alice, Anchors: anchors, RequireCertified: true,
		Chain: []*trust.Certificate{trust.Issue(root, "alice", alice.Pub, nil, 1000*sim.Second)}}
	epB := &trust.Endpoint{Principal: bob, Anchors: anchors, RequireCertified: true,
		Chain: []*trust.Certificate{trust.Issue(root, "bob", bob.Pub, nil, 1000*sim.Second)}}

	// The handshake messages themselves travel through the network (as
	// cleartext raw payloads — hellos are public by design).
	aliceAddr, bobAddr := packet.MakeAddr(1, 1), packet.MakeAddr(3, 1)
	helloA, err := epA.NewHello(rng)
	if err != nil {
		t.Fatal(err)
	}
	helloB, err := epB.NewHello(rng)
	if err != nil {
		t.Fatal(err)
	}
	send := func(src topology.NodeID, from, to packet.Addr, body []byte, encrypted bool) *netsim.Trace {
		var layers []packet.SerializableLayer
		tip := &packet.TIP{TTL: 16, Src: from, Dst: to}
		if encrypted {
			tip.Proto = packet.LayerTypeCrypto
			layers = []packet.SerializableLayer{tip, &packet.Raw{Data: body}}
		} else {
			tip.Proto = packet.LayerTypeRaw
			layers = []packet.SerializableLayer{tip, &packet.Raw{Data: body}}
		}
		data, err := packet.Serialize(layers...)
		if err != nil {
			t.Fatal(err)
		}
		tr := net.Send(src, data)
		sched.Run()
		return tr
	}
	// Exchange hellos (their wire form here is the ephemeral public
	// key; the struct exchange models the rest).
	if tr := send(1, aliceAddr, bobAddr, helloA.EphemeralPub, false); !tr.Delivered {
		t.Fatal("hello A lost")
	}
	if tr := send(3, bobAddr, aliceAddr, helloB.EphemeralPub, false); !tr.Delivered {
		t.Fatal("hello B lost")
	}
	keyA, err := epA.Complete(helloB, 10*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	keyB, err := epB.Complete(helloA, 10*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(keyA, keyB) {
		t.Fatal("handshake key mismatch")
	}

	// Session data: encrypted with the derived key, sent past the tap.
	secret := []byte("the laws of mathematics, not the laws of men")
	c := &packet.Crypto{KeyID: 1, Nonce: 42}
	c.Seal(keyA, secret, packet.LayerTypeRaw)
	cdata, err := packet.Serialize(c)
	if err != nil {
		t.Fatal(err)
	}
	var gotAtBob []byte
	net.Node(3).Deliver = func(n *netsim.Node, tr *netsim.Trace, data []byte) { gotAtBob = data }
	if tr := send(1, aliceAddr, bobAddr, cdata, true); !tr.Delivered {
		t.Fatal("session packet lost")
	}

	// Bob decrypts with his derived key.
	p := packet.NewPacket(gotAtBob, packet.LayerTypeTIP)
	cl := p.Layer(packet.LayerTypeCrypto)
	if cl == nil {
		t.Fatalf("bob's packet: %v", p)
	}
	plain, err := cl.(*packet.Crypto).Open(keyB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, secret) {
		t.Fatalf("bob decrypted %q", plain)
	}

	// The tap saw everything but could read only the handshake: the
	// session payload was opaque.
	if len(tap.Captured) < 3 {
		t.Fatalf("tap captured %d packets", len(tap.Captured))
	}
	last := tap.Captured[len(tap.Captured)-1]
	if last.Readable {
		t.Fatal("tap read the encrypted session")
	}
	readable := 0
	for _, cap := range tap.Captured {
		if cap.Readable {
			readable++
		}
	}
	if readable != 2 {
		t.Fatalf("tap read %d packets, want just the 2 hellos", readable)
	}
}
