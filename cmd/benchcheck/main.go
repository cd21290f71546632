// Command benchcheck schema-validates the BENCH_*.json artifacts the
// benchall experiments write, so CI fails loudly when a report loses a
// field or a criterion instead of silently uploading a hollow artifact.
//
// The expected schema is selected by filename: BENCH_hotpath.json,
// BENCH_chaos.json, BENCH_telemetry.json, BENCH_optimistic.json,
// BENCH_resilience.json, BENCH_net.json and BENCH_adaptive.json each
// have a required set of top-level fields
// (which must be present and non-empty) and required criteria keys
// (which must be present and finite). Unknown BENCH_ filenames are an
// error — a new experiment must register its schema here.
//
// Usage:
//
//	benchcheck BENCH_hotpath.json BENCH_telemetry.json
//	benchcheck -chaos-strict BENCH_chaos.json
//	benchcheck -chaos-strict BENCH_resilience.json
//
// -chaos-strict additionally enforces the chaos pass condition on the
// criteria values themselves: zero leaked locks, zero leaked waiters,
// zero quiescence failures, zero telemetry mismatches. On resilience
// reports it enforces the degradation criterion instead: the policied
// router retains >= 2x the blocking router's completed throughput at
// the harshest injection rate, with zero leaks. On adaptive reports it
// enforces the control-plane acceptance: the controller's paired
// geomean matches or beats the best static profile, the static
// profiles actually diverge, and pure observation costs <= 5%.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// schema lists what a report kind must contain.
type schema struct {
	fields   []string // required non-empty top-level fields
	criteria []string // required keys under "criteria"
}

var schemas = map[string]schema{
	"hotpath": {
		fields: []string{"gomaxprocs", "app_ops_per_thread", "core_ops_per_cell",
			"app_cells", "app_speedup_fused_over_sequential", "mode_cells", "batch_cells",
			"watchdog_cells", "criteria"},
		criteria: []string{
			"gossip_fused_over_sequential_T8plus",
			"intruder_fused_over_sequential_T2plus",
			"mode_setref_allocs_per_op",
			"unwatched_over_watched_ns_ratio",
		},
	},
	"chaos": {
		fields: []string{"gomaxprocs", "cells", "criteria"},
		criteria: []string{
			"recovery_ratio_min",
			"leaked_locks_total",
			"quiesce_failures",
			"telemetry_holds_mismatch",
			"panic_recovery_mismatch",
			"leaked_waiters_total",
		},
	},
	"telemetry": {
		fields: []string{"gomaxprocs", "app_ops_per_thread", "app_cells",
			"on_over_off_by_threads", "snapshot_cell", "trace_sections_checked",
			"trace_order_mismatches", "predicted_max_at_rank", "criteria"},
		criteria: []string{
			"telemetry_on_over_off_throughput_geomean",
			"telemetry_overhead_pct",
			"trace_sections_checked",
			"trace_order_mismatches",
		},
	},
	"optimistic": {
		fields: []string{"gomaxprocs", "ops_per_thread", "cells",
			"ratio_optimistic_over_pessimistic", "criteria"},
		criteria: []string{
			"optimistic_over_pessimistic_f99_T8plus",
			"validation_failure_rate_f99",
			"f50_worst_regression_pct",
			"torn_scans",
		},
	},
	"resilience": {
		fields: []string{"gomaxprocs", "workers", "points", "policy_state", "criteria"},
		criteria: []string{
			"retention_at_max_hold",
			"retention_at_zero_hold",
			"policies_engaged_at_max_hold",
			"leaked_locks_total",
			"leaked_waiters_total",
			"quiesce_failures",
		},
	},
	"net": {
		fields: []string{"gomaxprocs", "cell_seconds", "points", "inproc_baseline",
			"net_over_inproc_ratio", "criteria"},
		criteria: []string{
			"steady_frame_allocs_per_op",
			"leaked_conns_total",
			"leaked_locks_total",
			"leaked_waiters_total",
			"quiesce_failures",
			"drain_failures",
			"max_conns_swept",
			"net_over_inproc_at_read50",
		},
	},
	"adaptive": {
		fields: []string{"gomaxprocs", "ops_per_thread", "cells",
			"ratio_adaptive_over_profile", "final_knobs", "criteria"},
		criteria: []string{
			"adaptive_over_best_static_geomean",
			"adaptive_over_best_static_worst_workload",
			"controller_off_overhead_pct",
			"static_spread",
			"scan_preempt_adaptive_over_best_static",
			"churn_preempt_adaptive_over_best_static",
			"rangestore_f99_adaptive_over_best_static",
		},
	},
}

// netStrictZero are the net criteria enforced unconditionally: a
// nonzero steady-state allocation count or any leaked resource is a
// regression of the wire path's core claims, never a host-speed matter.
// The sweep floor (max_conns_swept) is informational so a short CI
// smoke cell still validates.
var netStrictZero = []string{
	"steady_frame_allocs_per_op",
	"leaked_conns_total",
	"leaked_locks_total",
	"leaked_waiters_total",
	"quiesce_failures",
	"drain_failures",
}

// chaosStrictZero are the chaos criteria that must be exactly zero for
// a passing run; -chaos-strict turns their values into exit status.
var chaosStrictZero = []string{
	"leaked_locks_total",
	"leaked_waiters_total",
	"quiesce_failures",
	"telemetry_holds_mismatch",
	"panic_recovery_mismatch",
}

func main() {
	chaosStrict := flag.Bool("chaos-strict", false,
		"for chaos reports, also require the leak/quiesce/telemetry-mismatch criteria to be exactly zero; for resilience reports, enforce the >=2x degradation retention and zero-leak criteria")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "benchcheck: no files given")
		os.Exit(2)
	}

	failed := false
	for _, path := range flag.Args() {
		if errs := checkFile(path, *chaosStrict); len(errs) > 0 {
			failed = true
			for _, e := range errs {
				fmt.Fprintf(os.Stderr, "benchcheck: %s: %v\n", path, e)
			}
		} else {
			fmt.Printf("benchcheck: %s: ok\n", path)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// kindOf maps BENCH_<kind>.json to its schema key.
func kindOf(path string) string {
	base := filepath.Base(path)
	if len(base) > len("BENCH_")+len(".json") && base[:6] == "BENCH_" && filepath.Ext(base) == ".json" {
		return base[6 : len(base)-len(".json")]
	}
	return ""
}

func checkFile(path string, chaosStrict bool) []error {
	kind := kindOf(path)
	sch, ok := schemas[kind]
	if !ok {
		return []error{fmt.Errorf("unknown report kind %q (expected BENCH_<hotpath|chaos|telemetry|optimistic|resilience|net|adaptive>.json)", kind)}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return []error{err}
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		return []error{fmt.Errorf("not a JSON object: %w", err)}
	}

	var errs []error
	for _, f := range sch.fields {
		v, present := top[f]
		if !present {
			errs = append(errs, fmt.Errorf("missing field %q", f))
			continue
		}
		// Zero numbers are legitimate values (a mismatch count of 0 is
		// the passing case); only structural emptiness fails.
		if s := string(v); s == "null" || s == "{}" || s == "[]" || s == `""` {
			errs = append(errs, fmt.Errorf("field %q is empty (%s)", f, s))
		}
	}

	var criteria map[string]float64
	if v, present := top["criteria"]; present {
		if err := json.Unmarshal(v, &criteria); err != nil {
			errs = append(errs, fmt.Errorf("criteria is not a string→number map: %w", err))
		}
	}
	for _, k := range sch.criteria {
		v, present := criteria[k]
		if !present {
			errs = append(errs, fmt.Errorf("missing criterion %q", k))
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			errs = append(errs, fmt.Errorf("criterion %q is not finite: %v", k, v))
		}
	}
	// A telemetry report that checked no schedules proves nothing.
	if kind == "telemetry" {
		if v, present := criteria["trace_sections_checked"]; present && v <= 0 {
			errs = append(errs, fmt.Errorf("criterion trace_sections_checked = %v, want > 0", v))
		}
	}
	// A torn scan is a validated optimistic read that observed half of
	// an atomic pair write — a protocol soundness failure, never a
	// tuning matter. Unlike the throughput criteria (host-dependent),
	// this one is enforced unconditionally.
	if kind == "optimistic" {
		if v, present := criteria["torn_scans"]; present && v != 0 {
			errs = append(errs, fmt.Errorf("criterion torn_scans = %v, want 0", v))
		}
	}

	if kind == "net" {
		for _, k := range netStrictZero {
			if v, present := criteria[k]; present && v != 0 {
				errs = append(errs, fmt.Errorf("criterion %q = %v, want 0", k, v))
			}
		}
	}

	if kind == "chaos" && chaosStrict {
		for _, k := range chaosStrictZero {
			if v, present := criteria[k]; present && v != 0 {
				errs = append(errs, fmt.Errorf("strict: criterion %q = %v, want 0", k, v))
			}
		}
		if v, present := criteria["recovery_ratio_min"]; present && v < 0.8 {
			errs = append(errs, fmt.Errorf("strict: recovery_ratio_min = %v, want >= 0.8", v))
		}
	}
	// The adaptive acceptance criteria are throughput ratios, so they
	// are host-speed-independent but still noise-sensitive on short
	// runs; like the chaos/resilience conditions they are enforced only
	// under the strict flag, so a short CI smoke cell schema-validates
	// without flaking while a full run must actually win.
	if kind == "adaptive" && chaosStrict {
		if v, present := criteria["adaptive_over_best_static_geomean"]; present && v < 1.0 {
			errs = append(errs, fmt.Errorf("strict: adaptive_over_best_static_geomean = %v, want >= 1.0", v))
		}
		if v, present := criteria["static_spread"]; present && v < 1.1 {
			errs = append(errs, fmt.Errorf("strict: static_spread = %v, want >= 1.1 (workloads must have opposite sweet spots for the experiment to mean anything)", v))
		}
		if v, present := criteria["controller_off_overhead_pct"]; present && v > 5.0 {
			errs = append(errs, fmt.Errorf("strict: controller_off_overhead_pct = %v, want <= 5.0", v))
		}
	}
	// The resilience degradation criterion: at the harshest injection
	// rate, the policied router must retain at least twice the blocking
	// router's completed throughput, with nothing leaked.
	if kind == "resilience" && chaosStrict {
		for _, k := range []string{"leaked_locks_total", "leaked_waiters_total", "quiesce_failures"} {
			if v, present := criteria[k]; present && v != 0 {
				errs = append(errs, fmt.Errorf("strict: criterion %q = %v, want 0", k, v))
			}
		}
		if v, present := criteria["retention_at_max_hold"]; present && v < 2.0 {
			errs = append(errs, fmt.Errorf("strict: retention_at_max_hold = %v, want >= 2.0", v))
		}
		if v, present := criteria["policies_engaged_at_max_hold"]; present && v <= 0 {
			errs = append(errs, fmt.Errorf("strict: policies_engaged_at_max_hold = %v, want > 0", v))
		}
	}
	return errs
}
