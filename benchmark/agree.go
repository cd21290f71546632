package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) does (exclusive
// method), which is what the benchmark's acceptance check uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		pos := float64(i) * float64(len(s)+1) / 4 // 1-based rank
		lo := int(math.Floor(pos))
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(1), at(2), at(3)
}

// runChild runs one untraced run of this binary and parses its result
// line.
func runChild(wl string, seed uint64) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", wl, "--seed", strconv.FormatUint(seed, 10), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", wl, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", wl, seed, err)
	}
	if !res.Correct || res.Failed != 0 {
		return nil, fmt.Errorf("%s seed %d: correct=%v failed=%d", wl, seed, res.Correct, res.Failed)
	}
	return &res, nil
}

// runAgree runs two interleaved sets (A, B, A, B, …) of k runs per
// workload, every run with another seed, and prints for each end-to-end
// metric whether identical code agrees with itself inside the metric's
// bound: the sets' medians within half the bound of each other, each
// set's inter-quartile spread and the full range of all 2k runs within
// the bound. "iqr AB" is the inter-quartile spread of all 2k runs, the
// figure BENCHMARK.json's bounds are sized against.
func runAgree(k int, only string, seed uint64) error {
	failed := 0
	for _, wl := range workloads {
		if only != "" && wl.name != only {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*k; i++ {
			res, err := runChild(wl.name, seed+uint64(i))
			if err != nil {
				return err
			}
			for name, m := range res.Metrics {
				sets[i%2][name] = append(sets[i%2][name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "agree: %s run %d/%d done\n", wl.name, i+1, 2*k)
		}
		fmt.Printf("\n%s: %d+%d runs of %d s, seeds %d..%d\n", wl.name, k, k, runSeconds, seed, seed+uint64(2*k)-1)
		fmt.Printf("%-14s %12s %7s %12s %7s %8s %7s %8s %6s  %s\n",
			"metric", "median A", "iqr A", "median B", "iqr B", "B vs A", "iqr AB", "range", "bound", "")
		for _, d := range endToEnd {
			a, b := sets[0][d.name], sets[1][d.name]
			a1, am, a3 := quartiles(a)
			b1, bm, b3 := quartiles(b)
			all := append(append([]float64(nil), a...), b...)
			sort.Float64s(all)
			q1, m, q3 := quartiles(all)
			diff := (bm - am) / am
			rng := (all[len(all)-1] - all[0]) / m
			iqrA, iqrB, iqrAll := (a3-a1)/am, (b3-b1)/bm, (q3-q1)/m
			verdict := "PASS"
			if math.Abs(diff) >= d.bound/2 || rng > d.bound || iqrA > d.bound || iqrB > d.bound {
				verdict = "FAIL"
				failed++
			}
			fmt.Printf("%-14s %12.4f %6.2f%% %12.4f %6.2f%% %+7.2f%% %6.2f%% %7.2f%% %5.0f%%  %s\n",
				d.name, am, 100*iqrA, bm, 100*iqrB, 100*diff, 100*iqrAll, 100*rng, 100*d.bound, verdict)
		}
	}
	if failed != 0 {
		return fmt.Errorf("agree: %d metric(s) outside their bound", failed)
	}
	return nil
}
