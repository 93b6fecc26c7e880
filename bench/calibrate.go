package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// calSeed is the seed of calibration run r: the two canonical seeds
// first, so their committed digests and goldens are exercised, then 1,
// 2, 3, ...
func calSeed(r int) uint64 {
	switch r {
	case 0:
		return 42
	case 1:
		return 7
	}
	return uint64(r - 1)
}

// calRun is one fresh-process run's parsed result line.
type calRun struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// calibrate runs every workload runs times, each in a fresh process and
// with its own seed, alternating the workload order from run to run. It
// prints, per workload and end-to-end metric, the median, quartiles and
// spread over all runs, and the medians of the even and the odd runs —
// two interleaved sets whose drift shows whether one set of runs
// reproduces another. It returns 1 if a run failed, a spread (set-up time
// excepted) exceeds its bound, or the sets drift apart by more than it.
func calibrate(spec *benchSpec, specPath string, runs, seconds int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: calibrate:", err)
		return 2
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	results := map[string][]calRun{}
	bad := 0
	for r := 0; r < runs; r++ {
		order := append([]string(nil), names...)
		if r%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			cmd := exec.Command(exe, "-workload", w, "-seed", strconv.FormatUint(calSeed(r), 10),
				"-seconds", strconv.Itoa(seconds), "-trace", "0", "-spec", specPath)
			cmd.Stderr = os.Stderr
			t0 := time.Now()
			out, err := cmd.Output()
			took := time.Since(t0).Seconds()
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res calRun
			if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil || err != nil || !res.Correct || res.Failed != 0 {
				fmt.Fprintf(os.Stderr, "calibrate: run %d %s seed %d failed: exit %v, result %v\n", r, w, calSeed(r), err, jerr)
				for _, l := range lines {
					if strings.HasPrefix(l, "# FAIL") || strings.HasPrefix(l, "ops ") {
						fmt.Fprintln(os.Stderr, "calibrate:", l)
					}
				}
				bad++
				if jerr != nil {
					continue
				}
			}
			results[w] = append(results[w], res)
			var vals []string
			for _, m := range spec.EndToEnd {
				vals = append(vals, fmt.Sprintf("%s=%.4g", m.Name, res.Metrics[m.Name].Value))
			}
			fmt.Fprintf(os.Stderr, "calibrate: run %d %s seed %d (%.1f s): %s\n", r, w, calSeed(r), took, strings.Join(vals, " "))
		}
	}

	var b bytes.Buffer
	fmt.Fprintf(&b, "%d runs per workload, %d s each, seeds %d..; set A = even runs, set B = odd runs.\n\n", runs, seconds, calSeed(0))
	fmt.Fprintln(&b, "| workload | metric | median | q1 | q3 | spread | bound | set A | set B | drift | verdict |")
	fmt.Fprintln(&b, "|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---|")
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			var all, setA, setB []float64
			for i, res := range results[w] {
				v := res.Metrics[m.Name].Value
				all = append(all, v)
				if i%2 == 0 {
					setA = append(setA, v)
				} else {
					setB = append(setB, v)
				}
			}
			q1, q3 := quartiles(all)
			sp := spread(all)
			// Drift is how much worse set B's median reads than set A's.
			drift := (median(setB) - median(setA)) / median(setA)
			if m.Better == "higher" {
				drift = -drift
			}
			verdict := "ok"
			switch {
			case math.IsNaN(sp) || math.IsNaN(drift):
				verdict = "FAIL: no data"
			case drift > m.Bound:
				verdict = "FAIL: drift over bound"
			case m.Name != "setup_s" && sp > m.Bound:
				verdict = "FAIL: spread over bound"
			case m.Name != "setup_s" && sp > m.Bound/3:
				verdict = "spread over a third of the bound"
			}
			if strings.HasPrefix(verdict, "FAIL") {
				bad++
			}
			fmt.Fprintf(&b, "| %s | %s | %.4g %s | %.4g | %.4g | %.3f | %.2f | %.4g | %.4g | %+.3f | %s |\n",
				w, m.Name, median(all), m.Unit, q1, q3, sp, m.Bound, median(setA), median(setB), drift, verdict)
		}
	}
	os.Stdout.Write(b.Bytes())
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "calibrate: %d failures\n", bad)
		return 1
	}
	return 0
}
