package wire

import (
	"net"
	"net/netip"
	"testing"
)

// TestBlastLossyTail: against an echo that drops every 100th of 10,000
// datagrams, the blast writes exactly the 100 drops off, accounts for
// every datagram, and ends after a short idle wait instead of a full
// blastTimeout read.
func TestBlastLossyTail(t *testing.T) {
	pc, err := net.ListenUDP("udp", net.UDPAddrFromAddrPort(netip.MustParseAddrPort("127.0.0.1:0")))
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	// A queue deep enough for the blast's whole window, so the kernel
	// drops nothing on its own.
	if err := pc.SetReadBuffer(1 << 20); err != nil {
		t.Fatal(err)
	}
	go func() {
		buf := make([]byte, 2048)
		for n := 1; ; n++ {
			k, from, err := pc.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			if n%100 != 0 {
				pc.WriteToUDPAddrPort(buf[:k], from)
			}
		}
	}()
	const count = 10000
	res, err := Blast(BlastConfig{
		Target:  pc.LocalAddr().(*net.UDPAddr).AddrPort(),
		Count:   count,
		Packets: [][]byte{[]byte("lossy echo")},
		Echo:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != count || res.SendErrors != 0 {
		t.Fatalf("sent %d with %d errors, want %d with none", res.Sent, res.SendErrors, count)
	}
	if res.Lost != count/100 || res.Received+res.Lost != res.Sent {
		t.Fatalf("received %d, lost %d of %d sent; want %d lost and the rest received",
			res.Received, res.Lost, res.Sent, count/100)
	}
	if res.Elapsed >= blastTimeout/2 {
		t.Fatalf("blast took %v, want well under the %v stall timeout", res.Elapsed, blastTimeout)
	}
}
