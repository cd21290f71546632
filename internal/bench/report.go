package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
)

// Formatter is what every run function returns: a result that prints
// itself as aligned tables (and marshals as the JSON artifact).
type Formatter interface{ Format() string }

// Bound is a pass condition on one criterion: Min <= value <= Max.
type Bound struct {
	Key      string
	Min, Max float64
}

var inf = math.Inf(1)

// zero bounds each key to exactly 0 — the leak and mismatch counts.
func zero(keys ...string) (bs []Bound) {
	for _, k := range keys {
		bs = append(bs, Bound{Key: k})
	}
	return bs
}

// Report is one real-execution experiment with a committed artifact:
// `benchall -exp <ID>` runs it and writes File, CheckFile validates File.
// Each entry is declared next to the struct it describes, so renaming a
// JSON tag and forgetting its schema fails this package's tests.
type Report struct {
	ID, File string
	Run      func() (Formatter, error)
	Fields   []string // top-level fields that must be present and non-empty
	Criteria []string // keys under "criteria" that must be present and finite
	Always   []Bound  // exact at any scale (leaks, allocation pins): always enforced
	Strict   []Bound  // throughput conditions a smoke run may miss: benchcheck -chaos-strict
}

// Reports lists the experiments that write a BENCH_<id>.json. The
// retired ones (lockmech, hotpath, optimistic, telemetry, adaptive)
// keep their committed JSON as history and have no entry: their ids are
// unknown.
var Reports = []*Report{&chaosReport, &resilienceReport, &netReport}

// formatCriteria is the tail every report's Format ends with.
func formatCriteria(criteria map[string]float64) string {
	var b strings.Builder
	b.WriteString("\ncriteria:\n")
	for _, k := range sortedStringKeys(criteria) {
		fmt.Fprintf(&b, "  %s = %.3f\n", k, criteria[k])
	}
	return b.String()
}

// drainAudit is the audit every real-execution cell ends with, once its
// work has drained: the outstanding holds on sems, the registered-waiter
// count above waiters0 (core.WaitersOutstanding read before the cell),
// and the first CheckQuiesced error, "" when every instance is
// quiescent. Each must read zero.
func drainAudit(sems []*core.Semantic, waiters0 int64) (holds, waiters int64, quiesce string) {
	for _, s := range sems {
		holds += s.OutstandingHolds()
		if err := s.CheckQuiesced(); err != nil && quiesce == "" {
			quiesce = err.Error()
		}
	}
	return holds, core.WaitersOutstanding() - waiters0, quiesce
}

// WriteReport writes rep as the indented JSON artifact at path.
func WriteReport(path string, rep Formatter) error {
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// CheckFile validates the artifact at path against the schema its file
// name selects, so a report that lost a field or a criterion fails
// loudly instead of shipping hollow. A BENCH_ file name with no entry in
// Reports is an error: a new experiment registers its schema there.
func CheckFile(path string, strict bool) []error {
	var rep *Report
	var files []string
	for _, r := range Reports {
		files = append(files, r.File)
		if r.File == filepath.Base(path) {
			rep = r
		}
	}
	if rep == nil {
		return []error{fmt.Errorf("unknown report %q (expected one of %s)", filepath.Base(path), strings.Join(files, ", "))}
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
	for _, f := range rep.Fields {
		// Zero numbers are legitimate values (a mismatch count of 0 is
		// the passing case); only structural emptiness fails.
		if v, present := top[f]; !present {
			errs = append(errs, fmt.Errorf("missing field %q", f))
		} else if s := string(v); s == "null" || s == "{}" || s == "[]" || s == `""` {
			errs = append(errs, fmt.Errorf("field %q is empty (%s)", f, s))
		}
	}
	var criteria map[string]float64
	if v, present := top["criteria"]; present {
		if err := json.Unmarshal(v, &criteria); err != nil {
			errs = append(errs, fmt.Errorf("criteria is not a string→number map: %w", err))
		}
	}
	for _, k := range rep.Criteria {
		if v, present := criteria[k]; !present {
			errs = append(errs, fmt.Errorf("missing criterion %q", k))
		} else if math.IsNaN(v) || math.IsInf(v, 0) {
			errs = append(errs, fmt.Errorf("criterion %q is not finite: %v", k, v))
		}
	}
	check := func(bounds []Bound, prefix string) {
		for _, b := range bounds {
			if v, present := criteria[b.Key]; present && (v < b.Min || v > b.Max) {
				errs = append(errs, fmt.Errorf("%scriterion %q = %v, want within [%v, %v]", prefix, b.Key, v, b.Min, b.Max))
			}
		}
	}
	check(rep.Always, "")
	if strict {
		check(rep.Strict, "strict: ")
	}
	return errs
}
