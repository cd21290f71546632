package telemetry_test

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// TestOptimisticCountersInSnapshot: hits, retries, and refusals
// recorded by core.Txn.TryOptimistic surface in the snapshot row and in
// its JSON form under the documented field names.
func TestOptimisticCountersInSnapshot(t *testing.T) {
	tbl, keys, _ := keyedTable(t)
	s := core.NewSemantic(tbl)
	mode := keys.Mode(1)

	tx := core.NewTxn()
	// One validated lock-free commit.
	if !tx.TryOptimistic(func(tx *core.Txn) bool {
		return tx.Observe(s, mode, 0)
	}) {
		t.Fatal("uncontended optimistic run failed")
	}
	tx.Reset()
	// One refused observation: a conflicting holder turns the attempt
	// away before any body runs — a refusal, not a retry.
	holder := core.NewTxn()
	holder.Lock(s, mode, 0)
	if tx.TryOptimistic(func(tx *core.Txn) bool {
		return tx.Observe(s, mode, 0)
	}) {
		t.Fatal("optimistic run must fail while a conflicting mode is held")
	}
	holder.UnlockAll()
	tx.Reset()
	// One genuine retry: the body completes but a conflicting acquire
	// inside the read window invalidates it.
	if tx.TryOptimistic(func(tx *core.Txn) bool {
		if !tx.Observe(s, mode, 0) {
			return false
		}
		w := core.NewTxn()
		w.Lock(s, mode, 0)
		w.UnlockAll()
		return true
	}) {
		t.Fatal("optimistic run must fail validation after an in-window conflict")
	}

	r := telemetry.NewRegistry()
	r.RegisterProvider("occ", "Map", func() []*core.Semantic { return []*core.Semantic{s} })
	row := r.Snapshot().Groups[0]
	if row.OptimisticHits != 1 {
		t.Errorf("OptimisticHits = %d, want 1", row.OptimisticHits)
	}
	if row.OptimisticRetries != 1 {
		t.Errorf("OptimisticRetries = %d, want 1", row.OptimisticRetries)
	}
	if row.OptimisticRefusals != 1 {
		t.Errorf("OptimisticRefusals = %d, want 1", row.OptimisticRefusals)
	}

	raw, err := json.Marshal(row)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"optimistic_hits":1`, `"optimistic_retries":1`, `"optimistic_refusals":1`} {
		if !strings.Contains(string(raw), field) {
			t.Errorf("JSON row missing %s: %s", field, raw)
		}
	}
}

// TestSnapshotAllocsPerInstance: aggregation stays allocation-free per
// instance — the allocations of a snapshot depend on the number of rows,
// not on how many instances feed them, so wide registries (gossip's
// per-group member maps) snapshot without per-instance garbage.
func TestSnapshotAllocsPerInstance(t *testing.T) {
	tbl, _, _ := keyedTable(t)

	mk := func(n int) *telemetry.Registry {
		r := telemetry.NewRegistry()
		sems := make([]*core.Semantic, n)
		for i := range sems {
			sems[i] = core.NewSemantic(tbl)
		}
		r.RegisterProvider("g", "Map", func() []*core.Semantic { return sems })
		return r
	}
	small, large := mk(1), mk(64)

	allocs := func(r *telemetry.Registry) float64 {
		return testing.AllocsPerRun(100, func() {
			snap := r.Snapshot()
			if len(snap.Groups) != 1 {
				t.Fatal("unexpected row count")
			}
		})
	}
	a1, a64 := allocs(small), allocs(large)
	if a64 > a1 {
		t.Errorf("snapshot allocations grow with instance count: 1 instance = %.0f, 64 instances = %.0f", a1, a64)
	}
}
