package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF with a valid buffer cannot fail.
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) in
// MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("peak rss: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}

// memCounters snapshots the allocator's cumulative counters.
type memCounters struct {
	mallocs, bytes uint64
	gcs            uint32
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC}
}

// since returns the counts accumulated after snapshot m0.
func (m memCounters) since(m0 memCounters) memCounters {
	return memCounters{mallocs: m.mallocs - m0.mallocs, bytes: m.bytes - m0.bytes, gcs: m.gcs - m0.gcs}
}

// schedLatency snapshots the runtime's histogram of how long runnable
// goroutines waited for a processor.
type schedLatency struct{ h *metrics.Float64Histogram }

const schedLatencyMetric = "/sched/latencies:seconds"

func readSched() schedLatency {
	s := []metrics.Sample{{Name: schedLatencyMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return schedLatency{}
	}
	return schedLatency{s[0].Value.Float64Histogram()}
}

// schedWait records the p50 and p99 scheduling waits between snapshots a
// and b as per-layer metrics.
func (r *report) schedWait(a, b schedLatency) {
	p50, p99 := waitQuantilesUs(a, b)
	r.layer("go.sched_wait_p50_us", p50)
	r.layer("go.sched_wait_p99_us", p99)
}

// waitQuantilesUs returns the p50 and p99 scheduling wait, in µs, of the
// goroutine wake-ups between snapshot a and b. Each is the upper edge of
// the histogram bucket holding the quantile (the lower edge for the
// open-ended last bucket).
func waitQuantilesUs(a, b schedLatency) (p50, p99 float64) {
	if a.h == nil || b.h == nil {
		return 0, 0
	}
	delta := make([]uint64, len(b.h.Counts))
	var total uint64
	for i := range delta {
		delta[i] = b.h.Counts[i] - a.h.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0, 0
	}
	q := func(p float64) float64 {
		want := uint64(math.Ceil(p * float64(total)))
		var cum uint64
		for i, c := range delta {
			cum += c
			if cum >= want {
				edge := b.h.Buckets[i+1]
				if math.IsInf(edge, 1) {
					edge = b.h.Buckets[i]
				}
				return edge * 1e6
			}
		}
		return 0
	}
	return q(0.50), q(0.99)
}
