package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/middlebox"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/wire"
)

// The kernel ladder replays the wire-forward mix through each stage of
// the forwarding decision on its own, by the public API that stage
// exposes, and then through Dataplane.Process whole. Each stage loop is
// timed as one batch, so the clock's own cost vanishes under the batch
// size; the stage sum weighted by how many datagrams reach each stage,
// against the whole-kernel figure, names the glue between stages.

const (
	ladderBatch  = 4096
	ladderRounds = 15
)

// ladderSink keeps stage results alive so the compiler cannot drop the
// timed calls.
var ladderSink uint64

// ladderStage is one stage's cost per call and how many calls it takes
// per datagram that passes the sanity filter.
type ladderStage struct {
	metric string
	ns     float64
	calls  float64
}

type fwdLadderResult struct {
	stages    []ladderStage // filter, decode, firewall, TTL, policy, route
	processNs float64       // Dataplane.Process per filter-accepted datagram
	accepted  float64       // share of datagrams the filter accepts
}

func (l fwdLadderResult) filterNs() float64 { return l.stages[0].ns }

// glueNs is the kernel time no stage accounts for: source-route peeking
// and advancing, direction and adjacency checks, building the decision.
func (l fwdLadderResult) glueNs() float64 {
	sum := 0.0
	for _, s := range l.stages {
		sum += s.ns * s.calls
	}
	return l.processNs - sum
}

func (l fwdLadderResult) String() string {
	var b strings.Builder
	for _, s := range l.stages {
		fmt.Fprintf(&b, "%s=%.1fns×%.2f ", s.metric, s.ns, s.calls)
	}
	fmt.Fprintf(&b, "process=%.1fns glue=%.1fns", l.processNs, l.glueNs())
	return b.String()
}

func fwdLadder(classes []fwdClass, tmpl [fwdClasses][]byte) (fwdLadderResult, error) {
	pol, err := netsim.CompileSourceRoutePolicy(fwdPolicy)
	if err != nil {
		return fwdLadderResult{}, fmt.Errorf("ladder: %w", err)
	}
	pristine := make([][]byte, ladderBatch)
	bufs := make([][]byte, ladderBatch)
	for i := range pristine {
		b := append([]byte(nil), tmpl[classes[i%len(classes)]]...)
		setSeq(b, uint32(i))
		pristine[i] = b
		bufs[i] = append([]byte(nil), b...)
	}
	refill := func() {
		for i := range bufs {
			copy(bufs[i], pristine[i])
		}
	}
	fw := &middlebox.PortFirewall{Label: "no-smtp", BlockedPorts: map[uint16]bool{fwdBlockedPort: true}}
	scratch := pol.NewScratch()

	// Walk the decision once to learn which datagrams reach which stage.
	tips := make([]packet.TIP, ladderBatch)
	wps := make([]packet.Addr, ladderBatch)
	var accepted, decoded, passFW, srcRouted, routed []int
	for i, b := range bufs {
		if packet.Filter(b) != packet.FilterAccept {
			continue
		}
		accepted = append(accepted, i)
		if tips[i].DecodeReuse(b) != nil {
			continue
		}
		decoded = append(decoded, i)
		if _, v := fw.Process(fwdNode, netsim.Forwarding, b); v == netsim.Drop {
			continue
		}
		passFW = append(passFW, i)
		ttl, err := packet.DecrementTTL(b)
		if err != nil || ttl == 0 {
			continue
		}
		tips[i].TTL = ttl
		if wp, ok := packet.PeekSourceRoute(b); ok {
			srcRouted = append(srcRouted, i)
			wps[i] = wp
			if pol.Allow(scratch, &tips[i], wp) {
				continue // an admitted route to a direct peer needs no lookup
			}
		}
		routed = append(routed, i)
	}
	if len(accepted) == 0 || len(passFW) == 0 || len(srcRouted) == 0 || len(routed) == 0 {
		return fwdLadderResult{}, fmt.Errorf("ladder: mix reaches no stage")
	}

	dp := wire.NewDataplane(fwdNodeConfig(pol, nil))
	var tip packet.TIP
	per := func(t0 time.Time, n int) float64 { return float64(time.Since(t0).Nanoseconds()) / float64(n) }
	samples := make([][]float64, 7)
	for r := 0; r < ladderRounds; r++ {
		refill()
		var acc uint64
		t0 := time.Now()
		for _, b := range bufs {
			acc += uint64(packet.Filter(b))
		}
		samples[0] = append(samples[0], per(t0, len(bufs)))
		t0 = time.Now()
		for _, i := range accepted {
			if tip.DecodeReuse(bufs[i]) == nil {
				acc++
			}
		}
		samples[1] = append(samples[1], per(t0, len(accepted)))
		t0 = time.Now()
		for _, i := range decoded {
			_, v := fw.Process(fwdNode, netsim.Forwarding, bufs[i])
			acc += uint64(v)
		}
		samples[2] = append(samples[2], per(t0, len(decoded)))
		t0 = time.Now()
		for _, i := range passFW {
			ttl, _ := packet.DecrementTTL(bufs[i])
			acc += uint64(ttl)
		}
		samples[3] = append(samples[3], per(t0, len(passFW)))
		t0 = time.Now()
		for _, i := range srcRouted {
			if pol.Allow(scratch, &tips[i], wps[i]) {
				acc++
			}
		}
		samples[4] = append(samples[4], per(t0, len(srcRouted)))
		t0 = time.Now()
		for _, i := range routed {
			next, _ := fwdRoute(tips[i].Dst, &tips[i])
			acc += uint64(next)
		}
		samples[5] = append(samples[5], per(t0, len(routed)))
		refill()
		t0 = time.Now()
		for _, i := range accepted {
			acc += uint64(dp.Process(bufs[i]).Kind)
		}
		samples[6] = append(samples[6], per(t0, len(accepted)))
		ladderSink += acc
	}
	na := float64(len(accepted))
	res := fwdLadderResult{
		stages: []ladderStage{
			{"packet.filter_ns", median(samples[0]), 1},
			{"packet.decode_ns", median(samples[1]), 1},
			{"middlebox.fw_ns", median(samples[2]), float64(len(decoded)) / na},
			{"packet.ttl_ns", median(samples[3]), float64(len(passFW)) / na},
			{"policy.srcroute_ns", median(samples[4]), float64(len(srcRouted)) / na},
			{"route_ns", median(samples[5]), float64(len(routed)) / na},
		},
		processNs: median(samples[6]),
		accepted:  na / float64(len(bufs)),
	}
	return res, nil
}
