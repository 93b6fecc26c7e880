// Command tussled runs tussle scenarios on the core engine and prints
// the round-by-round move history with the framework's metrics (control
// balance, distortion rate, visibility audit).
//
// Usage:
//
//	tussled [-scenario NAME] [-rounds N]
//	        [-cpuprofile FILE] [-memprofile FILE] [-traceout FILE]
//	tussled -list
//
// Scenarios live in internal/scenarios; -list enumerates them. The
// profiling flags wrap the scenario run in the standard runtime/pprof
// and runtime/trace collectors so hot spots in the engine can be read
// with `go tool pprof` / `go tool trace`.
//
// Wire mode (see wire.go) turns tussled into a live UDP element:
//
//	tussled -listen ADDR [-node ID] [-echo] [-peer ID=HOST:PORT ...]
//	        [-srcroute] [-srcroute-policy EXPR] [-filter-stats]
//	        [-mprecv PORT] [-impair-path ID [-impair-port PORT] [-impair-on]]
//	        [-obs FILE] [-cpuprofile FILE] [-memprofile FILE]
//	tussled -blast ADDR [-count N] [-dst P.H] [-src P.H] [-echo]
//	tussled -blast ADDR -multipath [-mpstrategy NAME] [-mpbytes N]
//	        [-dst P.H] [-src P.H] [-obs FILE]
//
// In wire mode the profiling flags cover the serve loop: SIGINT shuts
// the engine down, flushes profiles, and prints the final counters. A
// listener serves one worker per CPU, each moving 64 datagrams per
// system call. A multipath blast stripes a seed-42 payload over three
// paths to TTP port 7777, so its server runs with -mprecv 7777.
//
// Each mode reads only some of the flags. A flag set explicitly that the
// selected mode ignores (-count with -multipath, -impair-on without
// -impair-path) exits 2, and so does a -node, -mprecv or -impair-port
// value that does not fit in 16 bits.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/scenarios"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, signal.Notify))
}

// options holds every flag; each mode reads only its own (see run).
type options struct {
	scenario, traceout     string
	rounds                 int
	list                   bool
	cpuprofile, memprofile string

	listen, srcroutePolicy, obs string
	node, mprecv, impairPort    uint
	impairPath                  int
	echo, srcroute, filterStats bool
	impairOn                    bool
	peers                       peerFlag

	blast, dst, src, mpStrategy string
	count, mpBytes              int
	multipath                   bool
}

// run parses args, selects the mode, and runs it; it returns the process
// exit code. notify subscribes a channel to process signals, as
// signal.Notify does; the -listen serve loop stops on the SIGINT or
// SIGTERM it delivers.
func run(args []string, stdout, stderr io.Writer, notify func(chan<- os.Signal, ...os.Signal)) int {
	var o options
	fs := flag.NewFlagSet("tussled", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.scenario, "scenario", "value-pricing", "scenario name (see -list)")
	fs.IntVar(&o.rounds, "rounds", 12, "tussle rounds to run")
	fs.BoolVar(&o.list, "list", false, "list available scenarios")
	fs.StringVar(&o.traceout, "traceout", "", "write a runtime execution trace of the scenario run to this file")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the scenario run or serve loop to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write an allocation profile (after the run, or at shutdown) to this file")

	fs.StringVar(&o.listen, "listen", "", "UDP address to serve TIP on")
	fs.UintVar(&o.node, "node", 1, "this element's node ID (TIP provider number)")
	fs.BoolVar(&o.echo, "echo", false, "-listen: echo delivered datagrams back to the sender; -blast: expect echoes back and pace against them")
	fs.BoolVar(&o.srcroute, "srcroute", false, "honor source-route options")
	fs.StringVar(&o.srcroutePolicy, "srcroute-policy", "", "honor source routes only when this TPL expression holds (attrs: paid, ttl, dst-provider, src-provider, waypoint-provider); compiled once, metered per packet; implies -srcroute")
	fs.BoolVar(&o.filterStats, "filter-stats", false, "print counters (with the sanity-filter verdict histogram) every second")
	fs.UintVar(&o.mprecv, "mprecv", 0, "reassemble multipath streams delivered to this TTP port (0 = off)")
	fs.IntVar(&o.impairPath, "impair-path", 0, "install a path impairment middlebox for this on-wire path ID (0 = none; toggle with SIGUSR1)")
	fs.UintVar(&o.impairPort, "impair-port", 0, "restrict the path impairment to this TTP destination port (0 = any)")
	fs.BoolVar(&o.impairOn, "impair-on", false, "start with the path impairment enabled")
	fs.StringVar(&o.obs, "obs", "", "write the obs counter snapshot (JSON) to this file at shutdown or after the transfer")
	o.peers = peerFlag{}
	fs.Var(o.peers, "peer", "next-hop mapping id=host:port (repeatable)")

	fs.StringVar(&o.blast, "blast", "", "target UDP address to blast TIP datagrams at")
	fs.IntVar(&o.count, "count", 100000, "datagrams to send")
	fs.StringVar(&o.dst, "dst", "1.1", "TIP destination address as provider.host (default delivers at a default -listen node)")
	fs.StringVar(&o.src, "src", "1.1", "TIP source address as provider.host")
	fs.BoolVar(&o.multipath, "multipath", false, "stripe a reliable stream across paths instead of blasting raw datagrams")
	fs.StringVar(&o.mpStrategy, "mpstrategy", "shortest-k", "multipath scheduling strategy")
	fs.IntVar(&o.mpBytes, "mpbytes", 1<<20, "multipath stream size in bytes (seed-derived payload)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Each mode reads only some of the flags. One set explicitly that the
	// selected mode would ignore is an error: -blast -multipath -count N
	// must not stripe the default stream size and drop the count.
	const listenReads = "listen node echo srcroute srcroute-policy filter-stats mprecv impair-path obs peer cpuprofile memprofile"
	mode, reads := "in scenario mode", "scenario rounds traceout cpuprofile memprofile"
	switch {
	case o.listen != "" && o.impairPath > 0:
		mode, reads = "with -listen", listenReads+" impair-port impair-on"
	case o.listen != "":
		mode, reads = "with -listen and no -impair-path", listenReads
	case o.blast != "" && o.multipath:
		mode, reads = "with -blast -multipath", "blast multipath mpstrategy mpbytes dst src obs"
	case o.blast != "":
		mode, reads = "with -blast", "blast count dst src echo"
	case o.list:
		mode, reads = "with -list", "list"
	}
	ignored := ""
	fs.Visit(func(f *flag.Flag) {
		if ignored == "" && !slices.Contains(strings.Fields(reads), f.Name) {
			ignored = f.Name
		}
	})
	if ignored != "" {
		fmt.Fprintf(stderr, "tussled: -%s has no effect %s\n", ignored, mode)
		return 2
	}
	for _, f := range []struct {
		name string
		v    uint
	}{{"node", o.node}, {"mprecv", o.mprecv}, {"impair-port", o.impairPort}} {
		if f.v > math.MaxUint16 {
			fmt.Fprintf(stderr, "tussled: -%s %d does not fit in 16 bits\n", f.name, f.v)
			return 2
		}
	}

	switch {
	case o.listen != "":
		return runServe(&o, stdout, stderr, notify)
	case o.blast != "" && o.multipath:
		return runBlastMultipath(&o, stdout, stderr)
	case o.blast != "":
		return runBlast(&o, stdout, stderr)
	case o.list:
		fmt.Fprintln(stdout, strings.Join(scenarios.Names(), "\n"))
		return 0
	}
	return runScenario(&o, stdout, stderr)
}

// runScenario is the default mode: run one scenario and print its
// history and metrics.
func runScenario(o *options, stdout, stderr io.Writer) int {
	e, err := scenarios.Build(o.scenario)
	if err != nil {
		fmt.Fprintf(stderr, "tussled: %v\n", err)
		return 64
	}
	stopCPU, err := startCPUProfile(o.cpuprofile)
	if err != nil {
		fmt.Fprintf(stderr, "tussled: cpuprofile: %v\n", err)
		return 1
	}
	if o.traceout != "" {
		f, err := os.Create(o.traceout)
		if err != nil {
			fmt.Fprintf(stderr, "tussled: traceout: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			fmt.Fprintf(stderr, "tussled: traceout: %v\n", err)
			return 1
		}
	}
	e.Run(o.rounds)
	if o.traceout != "" {
		trace.Stop()
	}
	stopCPU()
	if err := writeMemProfile(o.memprofile); err != nil {
		fmt.Fprintf(stderr, "tussled: memprofile: %v\n", err)
		return 1
	}

	fmt.Fprintf(stdout, "scenario %q after %d rounds\n\n", o.scenario, o.rounds)
	fmt.Fprintln(stdout, "history:")
	for _, h := range e.History {
		action := ""
		if h.Move.Deploy != nil {
			action = "deploy " + h.Move.Deploy.Name
			if h.Move.Deploy.Distortion {
				action += " (distortion)"
			}
		}
		if h.Move.Withdraw != "" {
			if action != "" {
				action += ", "
			}
			action += "withdraw " + h.Move.Withdraw
		}
		fmt.Fprintf(stdout, "  round %2d  %-14s %-44s %s\n", h.Round, h.Actor, action, h.Move.Note)
	}
	fmt.Fprintln(stdout, "\nutilities:")
	for _, s := range e.Stakeholders {
		fmt.Fprintf(stdout, "  %-14s (%v): %.1f\n", s.Name, s.Kind, s.Utility)
	}
	st := e.State()
	fmt.Fprintf(stdout, "\nmetrics: %s\n", e.Summary())
	fmt.Fprintf(stdout, "  control balance (user - isp): %+.1f\n", e.ControlBalance(core.User, core.ISP))
	fmt.Fprintf(stdout, "  distortion rate:              %.2f\n", core.DistortionRate(st))
	fmt.Fprintf(stdout, "  visibility audit:             %.2f\n", core.VisibilityAudit(st))
	if e.Stable(3) {
		fmt.Fprintln(stdout, "  tussle quiescent (no moves in last 3 rounds) — for now")
	} else {
		fmt.Fprintln(stdout, "  tussle still in motion — no final outcome")
	}
	return 0
}

// startCPUProfile starts a CPU profile into path; the returned function
// stops it and closes the file. An empty path profiles nothing.
func startCPUProfile(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// writeMemProfile writes the allocation profile, after a GC, to path. An
// empty path writes nothing.
func writeMemProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
