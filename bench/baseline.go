package main

import (
	"container/heap"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"sync"
	"time"
)

// Baselines. The host this benchmark runs on is shared: its speed moves by
// ±20% over minutes, and with it every timing. So each workload also
// times a baseline that no change to the repository can move, interleaved
// with its own work, and reports its cost as a ratio to the baseline's
// (rel_time). The wire workloads use a round trip through a bare stdlib
// echo socket: the same loopback path with no engine on it. The simulator
// workloads use reference kernels written here, each doing the kind of
// work that slows its workload when the host slows. CALIBRATION.md has
// the measurements behind the choices.

const (
	churnNodes = 200_000
	churnSteps = 100_000
	walkNodes  = 1_000_000
	walkSteps  = 300_000
)

// refSeed seeds the kernels' fixed graphs; they never depend on -seed.
const refSeed = 88172645463325252

// xorshift advances a xorshift64 state and returns it.
func xorshift(x *uint64) uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return *x
}

type refEvent struct {
	at   int64
	key  uint64
	node int32
}

func (a *refEvent) before(b *refEvent) bool {
	return a.at < b.at || a.at == b.at && a.key < b.key
}

type refQueue []*refEvent

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].before(q[j]) }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() (x any)      { old := *q; x, *q = old[len(old)-1], old[:len(old)-1]; return x }

// churnKernel is the suite's reference: it allocates as the suite's many
// small simulations do. It builds a random graph of churnNodes nodes, each
// with its own slice of four out-edges, and walks churnSteps events across
// it through a heap of pointers, counting visits in a map. It returns the
// number of nodes visited.
func churnKernel() uint64 {
	adj := make([][]int32, churnNodes)
	x := uint64(refSeed)
	for i := range adj {
		for k := 0; k < 4; k++ {
			adj[i] = append(adj[i], int32(xorshift(&x)%churnNodes))
		}
	}
	visits := map[int32]int{}
	q := &refQueue{}
	for i := 0; i < 1000; i++ {
		heap.Push(q, &refEvent{at: int64(i), key: uint64(i), node: int32(i)})
	}
	key := uint64(1000)
	for s := 0; s < churnSteps; s++ {
		ev := heap.Pop(q).(*refEvent)
		visits[ev.node]++
		out := adj[ev.node]
		key++
		heap.Push(q, &refEvent{at: ev.at + int64(1+key%7), key: key, node: out[ev.key%uint64(len(out))]})
	}
	return uint64(len(visits))
}

// walker is sim-scale's reference: like the sharded simulator's drain,
// its walk allocates nothing and chases indices through memory far larger
// than the caches. Walkers share one read-only graph; each has its own
// visit counts and reuses its own event heap.
type walker struct {
	adj    []int32 // four out-edges per node
	visits []uint32
	heap   []refEvent
}

// walkGraph builds the walkers' graph: walkNodes nodes, four random
// out-edges each.
func walkGraph() []int32 {
	adj := make([]int32, 4*walkNodes)
	x := uint64(refSeed)
	for i := range adj {
		adj[i] = int32(xorshift(&x) % walkNodes)
	}
	return adj
}

func (g *walker) push(ev refEvent) {
	g.heap = append(g.heap, ev)
	for i := len(g.heap) - 1; i > 0; {
		p := (i - 1) / 2
		if !g.heap[i].before(&g.heap[p]) {
			break
		}
		g.heap[i], g.heap[p] = g.heap[p], g.heap[i]
		i = p
	}
}

func (g *walker) pop() refEvent {
	top, n := g.heap[0], len(g.heap)-1
	g.heap[0] = g.heap[n]
	g.heap = g.heap[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && g.heap[r].before(&g.heap[m]) {
			m = r
		}
		if !g.heap[m].before(&g.heap[i]) {
			break
		}
		g.heap[i], g.heap[m] = g.heap[m], g.heap[i]
		i = m
	}
	return top
}

// walk runs walkSteps events across the graph in time order and returns
// the sum of the visit counts it saw.
func (g *walker) walk() uint64 {
	g.heap = g.heap[:0]
	for i := 0; i < 1000; i++ {
		g.push(refEvent{at: int64(i), key: uint64(i), node: int32(i)})
	}
	key := uint64(1000)
	var sum uint64
	for s := 0; s < walkSteps; s++ {
		ev := g.pop()
		g.visits[ev.node]++
		sum += uint64(g.visits[ev.node])
		key++
		g.push(refEvent{at: ev.at + int64(1+key%7), key: key, node: g.adj[4*int(ev.node)+int(ev.key%4)]})
	}
	return sum
}

// refSink keeps the kernels' results alive so the compiler cannot drop them.
var refSink uint64

// refTimer times rounds of a reference kernel. A round runs all its
// kernels at once, one goroutine each, so that the baseline keeps as many
// processors busy as the work it is compared with.
type refTimer struct {
	kernels []func() uint64
	steps   int // event steps per kernel call
	ns      []float64
}

// churnTimer is the suite's baseline: one churnKernel per round.
func churnTimer() *refTimer {
	return &refTimer{kernels: []func() uint64{churnKernel}, steps: churnSteps}
}

// walkTimer is sim-scale's baseline: one walker per shard per round.
func walkTimer(shards int) *refTimer {
	r := &refTimer{steps: walkSteps}
	adj := walkGraph()
	for i := 0; i < shards; i++ {
		w := &walker{adj: adj, visits: make([]uint32, walkNodes), heap: make([]refEvent, 0, 2048)}
		r.kernels = append(r.kernels, w.walk)
	}
	return r
}

// run times one round.
func (r *refTimer) run() {
	out := make([]uint64, len(r.kernels))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, k := range r.kernels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = k()
		}()
	}
	wg.Wait()
	r.ns = append(r.ns, float64(time.Since(t0).Nanoseconds()))
	for _, v := range out {
		refSink += v
	}
}

// perStepNs is the median round's time per event step.
func (r *refTimer) perStepNs() float64 { return median(r.ns) / float64(r.steps) }

func listenLoopback() (*net.UDPConn, error) {
	return net.ListenUDP("udp", net.UDPAddrFromAddrPort(netip.MustParseAddrPort("127.0.0.1:0")))
}

// bareEchoPair is the wire baseline: a stdlib socket that answers every
// datagram with itself, and a client socket of its own so no straggler of
// the workload's traffic crosses into it.
type bareEchoPair struct {
	echo, client *net.UDPConn
	wg           sync.WaitGroup
}

func newBareEcho() (*bareEchoPair, error) {
	echo, err := listenLoopback()
	if err != nil {
		return nil, fmt.Errorf("bare echo: %w", err)
	}
	client, err := listenLoopback()
	if err != nil {
		echo.Close()
		return nil, fmt.Errorf("bare echo: %w", err)
	}
	b := &bareEchoPair{echo: echo, client: client}
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		buf := make([]byte, 2048)
		for {
			n, from, err := echo.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			// A failed echo only lowers the baseline's rate.
			_, _ = echo.WriteToUDPAddrPort(buf[:n], from)
		}
	}()
	return b, nil
}

// Close stops the echo and returns once its goroutine has exited.
func (b *bareEchoPair) Close() {
	b.echo.Close()
	b.client.Close()
	b.wg.Wait()
}

// roundTripNs keeps window copies of pkt in flight to the echo for dur,
// sending the next only when one returns, and returns the time per round
// trip completed.
func (b *bareEchoPair) roundTripNs(pkt []byte, window int, dur time.Duration) (float64, error) {
	target := b.echo.LocalAddr().(*net.UDPAddr).AddrPort()
	end := time.Now().Add(dur)
	if err := b.client.SetReadDeadline(end.Add(time.Second)); err != nil {
		return 0, fmt.Errorf("bare echo: %w", err)
	}
	for i := 0; i < window; i++ {
		if _, err := b.client.WriteToUDPAddrPort(pkt, target); err != nil {
			return 0, fmt.Errorf("bare echo: %w", err)
		}
	}
	rbuf := make([]byte, 2048)
	n := 0
	for inflight := window; inflight > 0; {
		_, _, err := b.client.ReadFromUDPAddrPort(rbuf)
		if errors.Is(err, os.ErrDeadlineExceeded) {
			break // a lost echo only lowers the baseline's rate
		}
		if err != nil {
			return 0, fmt.Errorf("bare echo: %w", err)
		}
		inflight--
		if time.Now().Before(end) {
			n++
			if _, err := b.client.WriteToUDPAddrPort(pkt, target); err != nil {
				return 0, fmt.Errorf("bare echo: %w", err)
			}
			inflight++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("bare echo: no round trip completed in %v", dur)
	}
	return float64(dur.Nanoseconds()) / float64(n), nil
}
