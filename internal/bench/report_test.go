package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestCommittedReportsValidate: every entry of Reports accepts the
// artifact committed at the repository root (schema only — the strict
// conditions are for fresh full runs).
func TestCommittedReportsValidate(t *testing.T) {
	for _, r := range Reports {
		for _, err := range CheckFile(filepath.Join("..", "..", r.File), false) {
			t.Errorf("%s: %v", r.File, err)
		}
	}
}

// TestReportsTable: ids and file names are unique, and every required
// field is a JSON tag of the struct the run function returns — so a
// renamed tag fails here, not in a later CI step.
func TestReportsTable(t *testing.T) {
	produced := map[string]any{
		"chaos":      ChaosReport{},
		"resilience": ResilienceReport{},
		"net":        NetReport{},
	}
	ids, files := map[string]bool{}, map[string]bool{}
	for _, r := range Reports {
		if ids[r.ID] || files[r.File] {
			t.Errorf("duplicate entry %s / %s", r.ID, r.File)
		}
		ids[r.ID], files[r.File] = true, true
		raw, err := json.Marshal(produced[r.ID])
		if err != nil {
			t.Fatal(err)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(raw, &keys); err != nil {
			t.Fatalf("%s: no struct on file for this id: %v", r.ID, err)
		}
		for _, f := range r.Fields {
			if _, ok := keys[f]; !ok {
				t.Errorf("%s: required field %q is not a JSON tag of %T", r.ID, f, produced[r.ID])
			}
		}
	}
}

// TestRetiredReportsUnknown: the experiments whose JSON stays as history
// have no id and no schema.
func TestRetiredReportsUnknown(t *testing.T) {
	for _, id := range []string{"hotpath", "optimistic", "telemetry", "lockmech", "adaptive"} {
		for _, r := range Reports {
			if r.ID == id {
				t.Errorf("retired id %q is still in Reports", id)
			}
		}
		path := filepath.Join("..", "..", "BENCH_"+id+".json")
		if _, err := os.Stat(path); err != nil {
			t.Errorf("%s: the historical record is gone: %v", path, err)
		}
		if errs := CheckFile(path, false); len(errs) == 0 {
			t.Errorf("CheckFile(%s) accepted a retired report", path)
		}
	}
}

// TestCheckFileRejects: a report that lost a criterion, or a net report
// that leaked, fails with or without strict.
func TestCheckFileRejects(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	hollow := write("BENCH_chaos.json", `{"gomaxprocs": 1, "cells": [], "criteria": {"recovery_ratio_min": 1}}`)
	if errs := CheckFile(hollow, false); len(errs) != 6 { // empty cells + five missing criteria
		t.Errorf("hollow chaos report: %d errors, want 6: %v", len(errs), errs)
	}
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_net.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep map[string]any
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	rep["criteria"].(map[string]any)["leaked_locks_total"] = 1
	leaky, _ := json.Marshal(rep)
	if errs := CheckFile(write("BENCH_net.json", string(leaky)), false); len(errs) != 1 {
		t.Errorf("leaky net report: %d errors, want 1: %v", len(errs), errs)
	}
}

// TestResilienceCriteria: on synthetic sweep points, every criterion the
// schema requires is computed, and policies_engaged_at_max_hold counts
// dropped operations once — a breaker refusal is one of them, not an
// extra engagement on top.
func TestResilienceCriteria(t *testing.T) {
	points := []ResiliencePoint{
		{HoldMS: 0, Retention: 0.95, LeakedWaiters: 1},
		{HoldMS: 9, Retention: 4, Dropped: 5, BreakerRejects: 3, LeakedLocks: 2, QuiesceError: "busy"},
	}
	c := resilienceCriteria(points)
	for _, k := range resilienceReport.Criteria {
		if _, ok := c[k]; !ok {
			t.Errorf("criterion %q not computed", k)
		}
	}
	want := map[string]float64{
		"retention_at_max_hold":        4,
		"retention_at_zero_hold":       0.95,
		"policies_engaged_at_max_hold": 5,
		"leaked_locks_total":           2,
		"leaked_waiters_total":         1,
		"quiesce_failures":             1,
	}
	for k, v := range want {
		if c[k] != v {
			t.Errorf("%s = %v, want %v", k, c[k], v)
		}
	}
}
