// Command benchcheck schema-validates the BENCH_*.json artifacts the
// benchall experiments write, so CI fails loudly when a report loses a
// field or a criterion instead of silently uploading a hollow artifact.
//
// The schema is selected by file name from bench.Reports
// (BENCH_chaos.json, BENCH_resilience.json, BENCH_net.json): required
// top-level fields must be present and non-empty, required criteria
// present and finite, and the net report's allocation and leak criteria
// exactly zero. Any other file name is an error — that includes the
// historical records of retired experiments (BENCH_lockmech.json,
// BENCH_hotpath.json, BENCH_optimistic.json, BENCH_telemetry.json,
// BENCH_adaptive.json). `go test ./internal/bench` runs the same check
// over the committed files.
//
// Usage:
//
//	benchcheck BENCH_net.json
//	benchcheck -chaos-strict BENCH_chaos.json
//	benchcheck -chaos-strict BENCH_resilience.json
//
// -chaos-strict additionally enforces each report's pass condition on
// the criteria values themselves; the conditions are stated beside each
// entry of bench.Reports.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	strict := flag.Bool("chaos-strict", false,
		"also enforce the report's pass condition on its criteria values (chaos: zero leaks and recovery >= 0.8; resilience: >= 2x retention and zero leaks)")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "benchcheck: no files given")
		os.Exit(2)
	}

	failed := false
	for _, path := range flag.Args() {
		errs := bench.CheckFile(path, *strict)
		for _, e := range errs {
			fmt.Fprintf(os.Stderr, "benchcheck: %s: %v\n", path, e)
		}
		if len(errs) > 0 {
			failed = true
		} else {
			fmt.Printf("benchcheck: %s: ok\n", path)
		}
	}
	if failed {
		os.Exit(1)
	}
}
