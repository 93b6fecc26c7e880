package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Options configures RunAll.
type Options struct {
	// Parallelism bounds the number of worker goroutines running
	// experiments concurrently. Zero or negative means GOMAXPROCS.
	Parallelism int

	// Obs, when non-nil, collects metrics from every instrumented
	// experiment in the suite. Under parallelism each worker records
	// into a private shard registry; the shards are merged into Obs
	// after the pool drains. Registry merging is commutative, so the
	// aggregate is independent of the work-stealing schedule — the
	// determinism contract extends to the metrics.
	Obs *obs.Registry
}

// RunAll runs the full evaluation suite with the given seed, fanning the
// experiments out across a bounded worker pool. Each experiment is a pure
// function of the seed and owns all of its state (scheduler, RNG, routing
// databases), so running them concurrently is safe and the output is
// byte-identical to the sequential All(seed): same order, same tables,
// same cell values, at any parallelism level.
//
// Parallelism is across whole simulations only — each simulation's
// scheduler remains single-threaded by design.
func RunAll(seed uint64, opts Options) []*Result {
	p := opts.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > len(registry) {
		p = len(registry)
	}
	out := make([]*Result, len(registry))
	if p <= 1 {
		for i, e := range registry {
			out[i] = e.RunWith(seed, opts.Obs)
		}
		return out
	}
	// Work-stealing by atomic index: each worker claims the next
	// unclaimed experiment. out[i] is written by exactly one worker, and
	// slot order (not completion order) fixes the result order, so the
	// schedule is irrelevant to the output.
	shards := make([]*obs.Registry, p)
	if opts.Obs != nil {
		for w := range shards {
			shards[w] = obs.NewRegistry()
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		w := w
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(registry) {
					return
				}
				out[i] = registry[i].RunWith(seed, shards[w])
			}
		}()
	}
	wg.Wait()
	if opts.Obs != nil {
		for _, sh := range shards {
			opts.Obs.Merge(sh)
		}
	}
	return out
}
