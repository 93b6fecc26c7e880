package wire

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"
)

// Blast is the load-generator side of the wire engine: it pushes TIP
// datagrams at a target as fast as the socket allows, through the same
// batched send path the server uses. In echo mode it also reads the
// echoes back with a bounded outstanding window — UDP has no flow
// control, so pacing against the echoes is what keeps a loopback
// benchmark lossless instead of overrunning the receiver's socket
// buffer.

const (
	// blastWindow is the maximum outstanding (sent minus echoed)
	// datagrams in echo mode; the client's and the engine's receive
	// buffers (socketBuffer) are sized to hold that many.
	blastWindow = 256
	// blastTimeout is the per-read echo deadline while datagrams remain
	// to be sent; expiry writes off the outstanding window as lost.
	blastTimeout = 2 * time.Second
	// blastTailIdle is the per-read echo deadline once every datagram is
	// sent: echoes that have not come back after this long without any
	// echo are lost. A lost datagram stays outstanding until a deadline
	// writes it off, so every lossy run ends with one expiry.
	blastTailIdle = 100 * time.Millisecond
)

// BlastConfig configures one blast run.
type BlastConfig struct {
	// Target is the engine's UDP address.
	Target netip.AddrPort
	// Count is the total number of datagrams to send.
	Count int
	// Packets are the datagram templates, cycled in order. Required.
	Packets [][]byte
	// Echo reads echoes back and paces the send window against them.
	Echo bool
	// Conns is the number of parallel client sockets (default 1). Each
	// socket is a distinct source port, so SO_REUSEPORT servers spread
	// them across workers.
	Conns int
}

func (c *BlastConfig) fill() error {
	if len(c.Packets) == 0 {
		return errors.New("wire: blast needs at least one packet template")
	}
	if c.Count <= 0 {
		return errors.New("wire: blast count must be positive")
	}
	if c.Conns <= 0 {
		c.Conns = 1
	}
	return nil
}

// BlastResult summarizes a run.
type BlastResult struct {
	Sent       int // datagrams handed to the kernel
	SendErrors int // datagrams the kernel refused (skipped, not retried)
	Received   int // echoes read back (echo mode)
	Lost       int // outstanding datagrams written off on echo timeout
	Elapsed    time.Duration
}

// PPS is the achieved packet rate: echoes per second in echo mode
// (each counted packet made the full client→server→client round),
// sends per second otherwise.
func (r BlastResult) PPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	n := r.Sent
	if r.Received > 0 {
		n = r.Received
	}
	return float64(n) / r.Elapsed.Seconds()
}

// Blast runs the load generator and blocks until Count datagrams are
// resolved (sent, and in echo mode echoed or written off).
func Blast(cfg BlastConfig) (BlastResult, error) {
	if err := cfg.fill(); err != nil {
		return BlastResult{}, err
	}
	start := time.Now()
	var (
		mu    sync.Mutex
		total BlastResult
		first error
		wg    sync.WaitGroup
	)
	per := cfg.Count / cfg.Conns
	for c := 0; c < cfg.Conns; c++ {
		n := per
		if c == cfg.Conns-1 {
			n = cfg.Count - per*(cfg.Conns-1)
		}
		if n == 0 {
			continue
		}
		wg.Add(1)
		go func(count int) {
			defer wg.Done()
			r, err := blastConn(&cfg, count)
			mu.Lock()
			defer mu.Unlock()
			total.Sent += r.Sent
			total.SendErrors += r.SendErrors
			total.Received += r.Received
			total.Lost += r.Lost
			if err != nil && first == nil {
				first = err
			}
		}(n)
	}
	wg.Wait()
	total.Elapsed = time.Since(start)
	return total, first
}

// blastConn drives one client socket.
func blastConn(cfg *BlastConfig, count int) (BlastResult, error) {
	var r BlastResult
	wild := "0.0.0.0:0"
	if cfg.Target.Addr().Is6() {
		wild = "[::]:0"
	}
	pc, err := net.ListenPacket("udp", wild)
	if err != nil {
		return r, fmt.Errorf("wire: blast socket: %w", err)
	}
	conn := pc.(*net.UDPConn)
	defer conn.Close()
	if cfg.Echo {
		// Room for a whole window of echoes: a full window of small
		// loopback echoes can overflow the default 208 KiB queue.
		if err := conn.SetReadBuffer(socketBuffer); err != nil {
			return r, fmt.Errorf("wire: blast receive buffer: %w", err)
		}
	}

	tx, err := newTxBatch(conn, Batch)
	if err != nil {
		return r, err
	}
	var rx *rxBatch
	if cfg.Echo {
		bufs := make([][]byte, Batch)
		slab := make([]byte, Batch*slotSize)
		for i := range bufs {
			bufs[i] = slab[i*slotSize : (i+1)*slotSize]
		}
		if rx, err = newRxBatch(conn, bufs); err != nil {
			return r, err
		}
	}

	entries := make([]txEntry, Batch)
	for i := range entries {
		entries[i].addr = cfg.Target
	}
	window := blastWindow
	if !cfg.Echo {
		window = count // no pacing without echoes
	}
	next := 0 // template rotation cursor
	progress, outstanding := 0, 0
	for progress < count || outstanding > 0 {
		// Fill the send window.
		for progress < count && outstanding < window {
			k := min(Batch, window-outstanding, count-progress)
			for i := 0; i < k; i++ {
				entries[i].data = cfg.Packets[next]
				next++
				if next == len(cfg.Packets) {
					next = 0
				}
			}
			sent, errs := tx.send(entries[:k])
			r.Sent += sent
			r.SendErrors += errs
			// A refused datagram (e.g. ICMP-driven ECONNREFUSED) is
			// skipped, not retried: count it as resolved progress.
			progress += sent + errs
			if cfg.Echo {
				outstanding += sent
				if errs > 0 {
					break // let the echo side drain before pushing harder
				}
			}
		}
		if !cfg.Echo || outstanding == 0 {
			continue
		}
		// Drain echoes.
		wait := blastTimeout
		if progress == count {
			wait = blastTailIdle
		}
		if err := conn.SetReadDeadline(time.Now().Add(wait)); err != nil {
			return r, err
		}
		n, err := rx.recv()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				// Write off the window: those datagrams (or their
				// echoes) are gone.
				r.Lost += outstanding
				outstanding = 0
				continue
			}
			return r, err
		}
		r.Received += n
		outstanding -= n
		if outstanding < 0 {
			outstanding = 0 // duplicated echoes
		}
	}
	return r, nil
}
