package wire

import (
	"fmt"
	"net/netip"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport/multipath"
)

// Reusable measurement workloads, shared by the package benchmarks and
// the tussle-bench -wire-json baseline writer so the committed
// BENCH_wire.json numbers measure exactly what the benchmarks do.

// ProcessBench measures the decision kernel alone: decode → TTL patch →
// route, no sockets. One op is one forwarded datagram.
type ProcessBench struct {
	dp   *Dataplane
	tmpl []byte
	buf  []byte
}

// NewProcessBench builds a forwarding node (2, peers 1 and 3) and a
// 67-byte payload-bearing datagram addressed across it.
func NewProcessBench() (*ProcessBench, error) {
	dp := NewDataplane(NodeConfig{
		ID: 2,
		Route: func(dst packet.Addr, tip *packet.TIP) (topology.NodeID, bool) {
			if dst.Provider() >= 3 {
				return 3, true
			}
			return 1, true
		},
		Peers: []topology.NodeID{1, 3},
	})
	tmpl, err := packet.Serialize(
		&packet.TIP{TTL: 64, Proto: packet.LayerTypeRaw, Src: packet.MakeAddr(1, 1), Dst: packet.MakeAddr(4, 1)},
		&packet.Raw{Data: []byte("wire-process-bench-payload")})
	if err != nil {
		return nil, err
	}
	b := &ProcessBench{dp: dp, tmpl: tmpl, buf: make([]byte, len(tmpl))}
	return b, nil
}

// Run decides count datagrams. Each op refills the receive buffer from
// the template (as a real receive would) and must decide Forward; the
// loop allocates nothing.
func (b *ProcessBench) Run(count int) error {
	for i := 0; i < count; i++ {
		copy(b.buf, b.tmpl)
		if dec := b.dp.Process(b.buf); dec.Kind != netsim.Forward || dec.Next != 3 {
			return fmt.Errorf("wire: process bench decided %v, want forward 3", dec)
		}
	}
	return nil
}

// LoopbackBench measures the full engine round trip on loopback: blast
// client → recv batch → filter → decode → deliver → echo batch →
// client. One op is one datagram making the complete round.
type LoopbackBench struct {
	eng     *Engine
	packets [][]byte
	conns   int
}

// NewLoopbackBench starts an echo engine with the given worker count on
// 127.0.0.1. Close must be called when done.
func NewLoopbackBench(workers int) (*LoopbackBench, error) {
	eng, err := New(Config{
		Listen:  "127.0.0.1:0",
		Workers: workers,
		Echo:    true,
	})
	if err != nil {
		return nil, err
	}
	go eng.Run()
	data, err := packet.Serialize(
		&packet.TIP{TTL: 8, Proto: packet.LayerTypeRaw, Src: packet.MakeAddr(1, 1), Dst: packet.MakeAddr(0, 1)},
		&packet.Raw{Data: []byte("wire-loopback-bench")})
	if err != nil {
		eng.Close()
		return nil, err
	}
	conns := workers
	if conns < 1 {
		conns = 1
	}
	return &LoopbackBench{eng: eng, packets: [][]byte{data}, conns: conns}, nil
}

// Run round-trips count datagrams and returns the blast-side result.
func (b *LoopbackBench) Run(count int) (BlastResult, error) {
	return Blast(BlastConfig{
		Target:  b.eng.Addr(),
		Count:   count,
		Packets: b.packets,
		Echo:    true,
		Conns:   b.conns,
	})
}

// Close shuts the engine down.
func (b *LoopbackBench) Close() { b.eng.Close() }

// MultipathLoopbackBench measures a striped transfer end to end on
// loopback: a MultipathSender striping across three paths into a real
// engine whose delivery hook reassembles and ACKs. One op is one
// striped segment round trip (data segment out, cumulative ACK back),
// so the per-op figures stay comparable across payload sizes and the
// bounded per-run setup (sender socket, templates, fresh receiver,
// timer goroutine) vanishes under integer division by the segment
// count. The steady state allocates nothing per segment: RTO timers
// are recycled scheduler slots, flights are recycled in place,
// segments are views into the payload, and the receiver digests the
// stream instead of keeping it, so the zero-tolerance allocs/op gate
// holds the row at exactly 0.
type MultipathLoopbackBench struct {
	eng     *Engine
	rcv     atomic.Pointer[MultipathReceiver]
	payload []byte
	port    uint16
	seg     int
}

// NewMultipathLoopbackBench starts an engine whose delivery hook
// forwards to the bench's current receiver (swapped fresh each Run so
// reassembly state never accumulates across iterations). Close must be
// called when done.
func NewMultipathLoopbackBench(workers int) (*MultipathLoopbackBench, error) {
	b := &MultipathLoopbackBench{port: 7900, seg: 512}
	b.rcv.Store(NewMultipathReceiver(0, b.port, 256))
	eng, err := New(Config{
		Listen:  "127.0.0.1:0",
		Workers: workers,
		Deliver: func(data []byte, from netip.AddrPort) []byte {
			return b.rcv.Load().Deliver(data, from)
		},
	})
	if err != nil {
		return nil, err
	}
	b.eng = eng
	go eng.Run()
	return b, nil
}

// Run stripes count segments across three loopback paths and blocks
// until the transfer completes, verifying byte-exact reassembly and
// that every path carried traffic.
func (b *MultipathLoopbackBench) Run(count int) (MPRecvSummary, error) {
	rcv := NewMultipathReceiver(0, b.port, 256)
	b.rcv.Store(rcv)
	if need := count * b.seg; len(b.payload) < need {
		b.payload = make([]byte, need)
		for i := range b.payload {
			b.payload[i] = byte(i*13 + i/509)
		}
	}
	payload := b.payload[:count*b.seg]
	cfg := multipath.DefaultConfig()
	cfg.Seed = 42
	cfg.Window = 32
	cfg.SegmentSize = b.seg
	paths := make([]MPPath, 3)
	for i := range paths {
		paths[i] = MPPath{Via: b.eng.Addr(), Latency: sim.Millisecond}
	}
	snd, err := NewMultipathSender(MultipathSenderConfig{
		Transport: cfg, Src: 1, Dst: 0, Port: b.port, Paths: paths,
	}, payload)
	if err != nil {
		return MPRecvSummary{}, err
	}
	defer snd.Close()
	snd.Start()
	if !snd.Wait(60 * time.Second) {
		return MPRecvSummary{}, fmt.Errorf("wire: multipath bench timed out: %+v", snd.Stats())
	}
	if st := snd.Stats(); !st.Done || st.Failed {
		return MPRecvSummary{}, fmt.Errorf("wire: multipath bench transfer failed: %+v", st)
	}
	sum := rcv.Summary()
	if sum.Bytes != len(payload) {
		return sum, fmt.Errorf("wire: multipath bench reassembled %d bytes, want %d", sum.Bytes, len(payload))
	}
	for w := 1; w <= len(paths); w++ {
		if sum.PathSegments[w] == 0 {
			return sum, fmt.Errorf("wire: multipath bench path %d carried no segments: %v", w, sum.PathSegments)
		}
	}
	return sum, nil
}

// Close shuts the engine down.
func (b *MultipathLoopbackBench) Close() { b.eng.Close() }
