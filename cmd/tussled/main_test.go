package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/scenarios"
)

// syncBuffer is a bytes.Buffer that a running server and the test may
// use at once.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// server is a tussled -listen run inside the test process.
type server struct {
	addr     netip.AddrPort
	sig      chan<- os.Signal
	out, err *syncBuffer
	code     chan int
}

var servingRE = regexp.MustCompile(`serving TIP on (\S+) `)

// listen starts run with -listen on a free loopback port plus args, and
// returns once the serve loop has subscribed to its signals.
func listen(t *testing.T, args ...string) *server {
	t.Helper()
	s := &server{out: &syncBuffer{}, err: &syncBuffer{}, code: make(chan int, 1)}
	subscribed := make(chan chan<- os.Signal, 1)
	notify := func(c chan<- os.Signal, _ ...os.Signal) { subscribed <- c }
	go func() {
		s.code <- run(append([]string{"-listen", "127.0.0.1:0"}, args...), s.out, s.err, notify)
	}()
	select {
	case s.sig = <-subscribed:
	case code := <-s.code:
		t.Fatalf("%v: exit %d before serving; stderr %q", args, code, s.err.String())
	}
	m := servingRE.FindStringSubmatch(s.out.String())
	if m == nil {
		t.Fatalf("no serving line in %q", s.out.String())
	}
	s.addr = netip.MustParseAddrPort(m[1])
	return s
}

// stop interrupts the server and returns its stdout once run returns 0.
func (s *server) stop(t *testing.T) string {
	t.Helper()
	s.sig <- os.Interrupt
	if code := <-s.code; code != 0 {
		t.Fatalf("server exit %d; stderr %q", code, s.err.String())
	}
	return s.out.String()
}

// counter reads name=N from the last counters a server printed.
func counter(t *testing.T, out, name string) string {
	t.Helper()
	m := regexp.MustCompile(`(?:^|\s)`+name+`=(\d+)`).FindAllStringSubmatch(out, -1)
	if m == nil {
		t.Fatalf("no %s= in %q", name, out)
	}
	return m[len(m)-1][1]
}

// runOK runs tussled in process and fails the test on a non-zero exit.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb, nil); code != 0 {
		t.Fatalf("%v: exit %d; stderr %q", args, code, errb.String())
	}
	return out.String()
}

func TestRunEveryScenario(t *testing.T) {
	names := strings.Fields(runOK(t, "-list"))
	if strings.Join(names, " ") != strings.Join(scenarios.Names(), " ") {
		t.Fatalf("-list printed %q, want %q", names, scenarios.Names())
	}
	for _, name := range names {
		out := runOK(t, "-scenario", name)
		if !strings.HasPrefix(out, `scenario "`+name+`" after 12 rounds`) || !strings.Contains(out, "visibility audit:") {
			t.Errorf("-scenario %s printed:\n%s", name, out)
		}
	}
	if out := runOK(t, "-scenario", names[0], "-rounds", "3"); !strings.HasPrefix(out, `scenario "`+names[0]+`" after 3 rounds`) {
		t.Errorf("-rounds 3 printed:\n%s", out)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-scenario", "no-such-scenario"}, &out, &errb, nil); code != 64 {
		t.Errorf("unknown scenario: exit %d, want 64; stderr %q", code, errb.String())
	}
}

// The profiling flags write non-empty profiles, in scenario mode and
// around the serve loop.
func TestProfilingFlags(t *testing.T) {
	dir := t.TempDir()
	file := func(name string) string { return filepath.Join(dir, name) }
	runOK(t, "-rounds", "2", "-cpuprofile", file("cpu"), "-memprofile", file("mem"), "-traceout", file("trace"))
	s := listen(t, "-cpuprofile", file("serve-cpu"), "-memprofile", file("serve-mem"))
	s.stop(t)
	for _, name := range []string{"cpu", "mem", "trace", "serve-cpu", "serve-mem"} {
		if info, err := os.Stat(file(name)); err != nil || info.Size() == 0 {
			t.Errorf("%s: %v, size %v", name, err, info)
		}
	}
}

// A raw blast with -echo against a -listen -echo server: every datagram
// is delivered and echoed back.
func TestListenBlastLoopback(t *testing.T) {
	s := listen(t, "-echo")
	out := runOK(t, "-blast", s.addr.String(), "-count", "200", "-echo")
	if !strings.Contains(out, "blast: sent=200 ") || !strings.Contains(out, " received=200 ") {
		t.Errorf("blast printed %q", out)
	}
	stats := s.stop(t)
	if counter(t, stats, "delivered") != "200" || counter(t, stats, "echoed") != "200" {
		t.Errorf("server counters:\n%s", stats)
	}
}

// Node 1 forwards provider-2 traffic to its -peer, a second tussled
// serving node 2, whose -filter-stats lines show the deliveries arrive.
func TestPeerForward(t *testing.T) {
	node2 := listen(t, "-node", "2", "-filter-stats")
	node1 := listen(t, "-peer", "2="+node2.addr.String())
	runOK(t, "-blast", node1.addr.String(), "-count", "50", "-src", "1.1", "-dst", "2.1")
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(node2.out.String(), " delivered=50 ") {
		if time.Now().After(deadline) {
			t.Fatalf("node 2 never counted 50 deliveries:\n%s", node2.out.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
	if got := counter(t, node1.stop(t), "forwarded"); got != "50" {
		t.Errorf("node 1 forwarded=%s, want 50", got)
	}
	if got := counter(t, node2.stop(t), "delivered"); got != "50" {
		t.Errorf("node 2 delivered=%s, want 50", got)
	}
}

// A datagram for provider 2, which node 1 has no peer for, carries a
// source route through provider 3, which it has. Honored, the route
// forwards it to peer 3; refused, it has no route. A plain datagram for
// provider 3 follows it from the same socket, so once the peer has that
// one, node 1 has decided both.
func TestSourceRoutePolicy(t *testing.T) {
	routed, err := packet.Serialize(
		&packet.TIP{TTL: 16, Proto: packet.LayerTypeRaw, Src: packet.MakeAddr(5, 1), Dst: packet.MakeAddr(2, 1),
			SourceRoute: &packet.SourceRouteOption{Hops: []packet.Addr{packet.MakeAddr(3, 0)}}},
		&packet.Raw{Data: []byte("routed")})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := packet.Serialize(
		&packet.TIP{TTL: 16, Proto: packet.LayerTypeRaw, Src: packet.MakeAddr(5, 1), Dst: packet.MakeAddr(3, 1)},
		&packet.Raw{Data: []byte("plain")})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		flags              []string
		forwarded, noRoute string
	}{
		{nil, "1", "1"},
		{[]string{"-srcroute"}, "2", "0"},
		{[]string{"-srcroute-policy", "waypoint-provider == 3"}, "2", "0"},
		{[]string{"-srcroute-policy", "paid"}, "1", "1"},
	}
	for _, c := range cases {
		peer, err := net.ListenUDP("udp", net.UDPAddrFromAddrPort(netip.MustParseAddrPort("127.0.0.1:0")))
		if err != nil {
			t.Fatal(err)
		}
		s := listen(t, append([]string{"-peer", "3=" + peer.LocalAddr().String()}, c.flags...)...)
		conn, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(s.addr))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range [][]byte{routed, plain} {
			if _, err := conn.Write(d); err != nil {
				t.Fatal(err)
			}
		}
		buf := make([]byte, 2048)
		for {
			peer.SetReadDeadline(time.Now().Add(10 * time.Second))
			n, _, err := peer.ReadFromUDP(buf)
			if err != nil {
				t.Fatalf("%v: peer 3 never got the plain datagram: %v", c.flags, err)
			}
			if bytes.HasSuffix(buf[:n], []byte("plain")) {
				break
			}
		}
		out := s.stop(t)
		conn.Close()
		peer.Close()
		if counter(t, out, "forwarded") != c.forwarded || counter(t, out, "no-route") != c.noRoute {
			t.Errorf("%v: want forwarded=%s no-route=%s, counters:\n%s", c.flags, c.forwarded, c.noRoute, out)
		}
	}
}

// A striped transfer to a -mprecv server arrives byte-exact, and both
// ends write their -obs snapshots.
func TestMultipathLoopback(t *testing.T) {
	dir := t.TempDir()
	s := listen(t, "-mprecv", "7777", "-obs", filepath.Join(dir, "server.json"))
	out := runOK(t, "-blast", s.addr.String(), "-multipath", "-mpstrategy", "loss-adaptive",
		"-mpbytes", "65536", "-src", "2.1", "-dst", "1.1", "-obs", filepath.Join(dir, "blast.json"))
	stats := s.stop(t)
	sent := regexp.MustCompile(`payload-sha256=([0-9a-f]+)`).FindStringSubmatch(out)
	got := regexp.MustCompile(`stream-sha256=([0-9a-f]+)`).FindStringSubmatch(stats)
	if !strings.Contains(out, "done=true") || sent == nil || got == nil || sent[1] != got[1] {
		t.Fatalf("blast:\n%s\nserver:\n%s", out, stats)
	}
	for _, name := range []string{"server.json", "blast.json"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || !json.Valid(data) {
			t.Errorf("%s: %v, %q", name, err, data)
		}
	}
}

func TestRunRejectsFlagsTheModeIgnores(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-blast", "127.0.0.1:9", "-count", "10", "-mpstrategy", "bogus"}, "-mpstrategy has no effect with -blast"},
		{[]string{"-blast", "127.0.0.1:9", "-mpbytes", "-5"}, "-mpbytes has no effect with -blast"},
		{[]string{"-blast", "127.0.0.1:9", "-obs", "o.json"}, "-obs has no effect with -blast"},
		{[]string{"-blast", "127.0.0.1:9", "-multipath", "-count", "10"}, "-count has no effect with -blast -multipath"},
		{[]string{"-blast", "127.0.0.1:9", "-multipath", "-echo"}, "-echo has no effect with -blast -multipath"},
		{[]string{"-blast", "127.0.0.1:9", "-node", "2"}, "-node has no effect with -blast"},
		{[]string{"-listen", "127.0.0.1:0", "-impair-port", "7777"}, "-impair-port has no effect with -listen and no -impair-path"},
		{[]string{"-listen", "127.0.0.1:0", "-impair-on"}, "-impair-on has no effect with -listen and no -impair-path"},
		{[]string{"-listen", "127.0.0.1:0", "-count", "5"}, "-count has no effect with -listen"},
		{[]string{"-listen", "127.0.0.1:0", "-blast", "127.0.0.1:9"}, "-blast has no effect with -listen"},
		{[]string{"-listen", "127.0.0.1:0", "-rounds", "3"}, "-rounds has no effect with -listen"},
		{[]string{"-rounds", "3", "-echo"}, "-echo has no effect in scenario mode"},
		{[]string{"-mprecv", "7777"}, "-mprecv has no effect in scenario mode"},
		{[]string{"-list", "-scenario", "value-pricing"}, "-scenario has no effect with -list"},
	}
	for _, c := range cases {
		var out, errb bytes.Buffer
		if code := run(c.args, &out, &errb, nil); code != 2 || !strings.Contains(errb.String(), "tussled: "+c.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 naming %q", c.args, code, errb.String(), c.want)
		}
		if out.Len() != 0 {
			t.Errorf("%v: a rejected run wrote stdout %q", c.args, out.String())
		}
	}
}

// Node IDs and ports are 16 bits on the wire; a larger value is refused
// rather than truncated.
func TestRunRejectsValuesBeyond16Bits(t *testing.T) {
	cases := [][]string{
		{"-listen", "127.0.0.1:0", "-node", "65537"},
		{"-listen", "127.0.0.1:0", "-mprecv", "73313"},
		{"-listen", "127.0.0.1:0", "-impair-path", "2", "-impair-port", "65536"},
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		name := args[len(args)-2]
		if code := run(args, &out, &errb, nil); code != 2 || !strings.Contains(errb.String(), "tussled: "+name+" "+args[len(args)-1]+" does not fit in 16 bits") {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 naming %s", args, code, errb.String(), name)
		}
	}
}
