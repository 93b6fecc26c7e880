package wire

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/topology"
)

// Batch is the number of datagrams the engine, the blast client and the
// multipath sender move per recvmmsg/sendmmsg call (the portable
// fallback receives one at a time).
const Batch = 64

// slotSize is the buffer size per datagram.
const slotSize = 2048

// socketBuffer is the receive buffer requested for every engine socket
// and for the blast client's: room for a full blast window of datagrams.
// Under a blast, the kernel's default (net.core.rmem_default, 208 KiB on
// common Linux hosts) overflows, and the datagrams its queue drops never
// reach the engine.
const socketBuffer = blastWindow * slotSize

// Config assembles an Engine.
type Config struct {
	// Listen is the UDP address to bind ("host:port"; port 0 picks one).
	Listen string
	// Workers is the number of receive workers. On Linux each worker
	// owns its own SO_REUSEPORT socket so the kernel spreads flows
	// across them; elsewhere all workers share one socket. Default:
	// GOMAXPROCS.
	Workers int
	// Echo sends delivered datagrams back to their sender — the
	// loopback benchmark and smoke-test mode.
	Echo bool
	// Deliver, if set, intercepts delivered datagrams (after the
	// dataplane's Deliver decision). A non-nil return is sent back to
	// the datagram's source address through the worker's transmit
	// batch — the multipath receiver answers data segments with ACKs
	// this way. Returning nil falls through to Echo. The hook is called
	// concurrently from every worker and must be safe for that; the
	// returned slice must stay valid until the worker's batch flushes
	// (MultipathReceiver sizes its ACK ring for this).
	Deliver func(data []byte, from netip.AddrPort) []byte
	// NewDataplane builds one decision kernel per worker. Per-worker
	// instances exist because stateful middleboxes (NAT) are not
	// goroutine-safe. Nil means a deliver-only node 0 (pure echo/sink).
	NewDataplane func() *Dataplane
	// Peers maps next-hop node IDs to their UDP addresses; forwards to
	// unmapped nodes are counted (NoPeer) and dropped.
	Peers map[topology.NodeID]netip.AddrPort
}

func (c *Config) fill() {
	if c.Listen == "" {
		c.Listen = "127.0.0.1:0"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.NewDataplane == nil {
		c.NewDataplane = func() *Dataplane { return NewDataplane(NodeConfig{ID: 0}) }
	}
}

// txEntry is one queued outbound datagram.
type txEntry struct {
	addr netip.AddrPort
	data []byte
}

// tally accumulates one batch's events on the stack; it is flushed to
// the worker's shared counters once per batch so the per-packet path
// performs no atomic operations.
type tally struct {
	received   uint64
	filtered   [packet.FilterVerdicts]uint64
	drops      [netsim.DropKinds]uint64
	delivered  uint64
	forwarded  uint64
	echoed     uint64
	replied    uint64
	noPeer     uint64
	sent       uint64
	sendErrors uint64
}

// wstats is a worker's shared counter block, read concurrently by
// Engine.Stats.
type wstats struct {
	received   atomic.Uint64
	filtered   [packet.FilterVerdicts]atomic.Uint64
	drops      [netsim.DropKinds]atomic.Uint64
	delivered  atomic.Uint64
	forwarded  atomic.Uint64
	echoed     atomic.Uint64
	replied    atomic.Uint64
	noPeer     atomic.Uint64
	sent       atomic.Uint64
	sendErrors atomic.Uint64
}

func (s *wstats) flush(t *tally) {
	s.received.Add(t.received)
	for i, v := range t.filtered {
		if v != 0 {
			s.filtered[i].Add(v)
		}
	}
	for i, v := range t.drops {
		if v != 0 {
			s.drops[i].Add(v)
		}
	}
	s.delivered.Add(t.delivered)
	s.forwarded.Add(t.forwarded)
	s.echoed.Add(t.echoed)
	s.replied.Add(t.replied)
	s.noPeer.Add(t.noPeer)
	s.sent.Add(t.sent)
	s.sendErrors.Add(t.sendErrors)
}

// Stats is an aggregate snapshot across all workers.
type Stats struct {
	Received   uint64
	Filtered   [packet.FilterVerdicts]uint64
	Drops      [netsim.DropKinds]uint64
	Delivered  uint64
	Forwarded  uint64
	Echoed     uint64
	Replied    uint64
	NoPeer     uint64
	Sent       uint64
	SendErrors uint64
}

// Accepted is the count of datagrams that passed the sanity filter.
func (s Stats) Accepted() uint64 { return s.Filtered[packet.FilterAccept] }

// TotalDropped sums all drop reasons.
func (s Stats) TotalDropped() uint64 {
	var n uint64
	for _, v := range s.Drops {
		n += v
	}
	return n
}

// String renders the snapshot as stable key=value lines (the
// -filter-stats output the smoke test greps).
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "received=%d accepted=%d delivered=%d forwarded=%d echoed=%d replied=%d sent=%d no-peer=%d send-errors=%d\n",
		s.Received, s.Accepted(), s.Delivered, s.Forwarded, s.Echoed, s.Replied, s.Sent, s.NoPeer, s.SendErrors)
	b.WriteString("filter:")
	for v := packet.FilterVerdict(1); int(v) < packet.FilterVerdicts; v++ {
		fmt.Fprintf(&b, " %s=%d", v, s.Filtered[v])
	}
	b.WriteString("\ndrops:")
	for k := netsim.DropKind(0); k < netsim.DropKinds; k++ {
		fmt.Fprintf(&b, " %s=%d", k, s.Drops[k])
	}
	return b.String()
}

// Engine is the live UDP server: sockets, workers, and their shared
// configuration. Build with New, drive with Run, stop with Close.
type Engine struct {
	cfg     Config
	conns   []*net.UDPConn
	workers []*worker
	peers   []netip.AddrPort // dense next-hop address table
	peerOK  []bool
	closed  atomic.Bool
	wg      sync.WaitGroup
}

// worker is one receive loop: a socket (possibly shared on non-Linux),
// private receive buffers, a private Dataplane, and the platform batch
// I/O state.
type worker struct {
	eng  *Engine
	conn *net.UDPConn
	dp   *Dataplane

	rxBuf [][]byte
	txq   []txEntry

	rx *rxBatch
	tx *txBatch

	st wstats
}

// New binds the sockets and builds the workers. The engine is not
// receiving until Run is called.
func New(cfg Config) (*Engine, error) {
	cfg.fill()
	e := &Engine{cfg: cfg}
	for id, a := range cfg.Peers {
		if int(id) >= len(e.peers) {
			grown := make([]netip.AddrPort, id+1)
			copy(grown, e.peers)
			e.peers = grown
			grownOK := make([]bool, id+1)
			copy(grownOK, e.peerOK)
			e.peerOK = grownOK
		}
		e.peers[id] = a
		e.peerOK[id] = true
	}

	// One socket per worker where SO_REUSEPORT + batch syscalls exist;
	// one shared socket otherwise.
	nsock := 1
	if batchIO {
		nsock = cfg.Workers
	}
	lc := listenConfig()
	addr := cfg.Listen
	for i := 0; i < nsock; i++ {
		pc, err := lc.ListenPacket(context.Background(), "udp", addr)
		if err != nil {
			e.Close()
			return nil, fmt.Errorf("wire: listen %s: %w", addr, err)
		}
		conn := pc.(*net.UDPConn)
		e.conns = append(e.conns, conn)
		if err := conn.SetReadBuffer(socketBuffer); err != nil {
			e.Close()
			return nil, fmt.Errorf("wire: receive buffer on %s: %w", conn.LocalAddr(), err)
		}
		if i == 0 {
			// Later sockets must bind the exact port the first one got.
			addr = conn.LocalAddr().String()
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		w, err := e.newWorker(e.conns[i%nsock])
		if err != nil {
			e.Close()
			return nil, err
		}
		e.workers = append(e.workers, w)
	}
	return e, nil
}

func (e *Engine) newWorker(conn *net.UDPConn) (*worker, error) {
	w := &worker{eng: e, conn: conn, dp: e.cfg.NewDataplane()}
	// One slab cut into the batch's receive buffers, reused for the
	// worker's lifetime.
	slab := make([]byte, Batch*slotSize)
	w.rxBuf = make([][]byte, Batch)
	for i := range w.rxBuf {
		w.rxBuf[i] = slab[i*slotSize : (i+1)*slotSize : (i+1)*slotSize]
	}
	w.txq = make([]txEntry, 0, Batch)
	var err error
	if w.rx, err = newRxBatch(conn, w.rxBuf); err != nil {
		return nil, err
	}
	if w.tx, err = newTxBatch(conn, Batch); err != nil {
		return nil, err
	}
	return w, nil
}

// Addr returns the engine's bound address (all sockets share it).
func (e *Engine) Addr() netip.AddrPort {
	return e.conns[0].LocalAddr().(*net.UDPAddr).AddrPort()
}

// Run starts the workers and blocks until Close. Safe to call from a
// goroutine.
func (e *Engine) Run() {
	for _, w := range e.workers {
		e.wg.Add(1)
		go w.run()
	}
	e.wg.Wait()
}

// Close shuts the sockets down; Run returns once the workers notice.
// Idempotent.
func (e *Engine) Close() {
	if e.closed.Swap(true) {
		return
	}
	for _, c := range e.conns {
		c.Close()
	}
}

// Stats sums the per-worker counters into one snapshot.
func (e *Engine) Stats() Stats {
	var s Stats
	for _, w := range e.workers {
		s.Received += w.st.received.Load()
		for i := range s.Filtered {
			s.Filtered[i] += w.st.filtered[i].Load()
		}
		for i := range s.Drops {
			s.Drops[i] += w.st.drops[i].Load()
		}
		s.Delivered += w.st.delivered.Load()
		s.Forwarded += w.st.forwarded.Load()
		s.Echoed += w.st.echoed.Load()
		s.Replied += w.st.replied.Load()
		s.NoPeer += w.st.noPeer.Load()
		s.Sent += w.st.sent.Load()
		s.SendErrors += w.st.sendErrors.Load()
	}
	return s
}

func (e *Engine) peerAddr(id topology.NodeID) (netip.AddrPort, bool) {
	if int(id) < len(e.peers) && e.peerOK[id] {
		return e.peers[id], true
	}
	return netip.AddrPort{}, false
}

func (w *worker) run() {
	defer w.eng.wg.Done()
	for {
		n, err := w.rx.recv()
		if err != nil {
			return // socket closed (or fatally broken): worker exits
		}
		if n > 0 {
			w.handle(n)
		}
	}
}

// handle runs one received batch through filter → dataplane → transmit.
// This is the zero-allocation steady-state path: decisions reuse the
// dataplane scratch, tx entries go into the preallocated queue, and
// counters are flushed once at the end.
func (w *worker) handle(n int) {
	var t tally
	w.txq = w.txq[:0]
	echo := w.eng.cfg.Echo
	deliver := w.eng.cfg.Deliver
	for i := 0; i < n; i++ {
		data := w.rxBuf[i][:w.rx.length(i)]
		t.received++
		v := packet.Filter(data)
		t.filtered[v]++
		if v != packet.FilterAccept {
			// The sanity filter rejects on raw bytes before the full
			// decode; a rejected datagram never reaches the dataplane
			// and is accounted under Filtered, not Drops.
			continue
		}
		dec := w.dp.Process(data)
		switch dec.Kind {
		case netsim.Deliver:
			t.delivered++
			if deliver != nil {
				if reply := deliver(dec.Data, w.rx.from(i)); reply != nil {
					w.txq = append(w.txq, txEntry{addr: w.rx.from(i), data: reply})
					t.replied++
					continue
				}
			}
			if echo {
				w.txq = append(w.txq, txEntry{addr: w.rx.from(i), data: dec.Data})
				t.echoed++
			}
		case netsim.Forward:
			t.forwarded++
			if a, ok := w.eng.peerAddr(dec.Next); ok {
				w.txq = append(w.txq, txEntry{addr: a, data: dec.Data})
			} else {
				t.noPeer++
			}
		default:
			t.drops[dec.Drop]++
		}
	}
	if len(w.txq) > 0 {
		sent, errs := w.tx.send(w.txq)
		t.sent = uint64(sent)
		t.sendErrors = uint64(errs)
	}
	w.st.flush(&t)
}
