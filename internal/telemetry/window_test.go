package telemetry_test

import (
	"testing"
	"time"

	"repro/internal/telemetry"
)

func TestRateWindowDecays(t *testing.T) {
	w := telemetry.NewRateWindow(40*time.Millisecond, 4)
	w.Add(10)
	if s := w.Sum(); s != 10 {
		t.Fatalf("Sum = %d, want 10", s)
	}
	// After a full window passes the sum decays to zero.
	time.Sleep(60 * time.Millisecond)
	if s := w.Sum(); s != 0 {
		t.Fatalf("Sum after window = %d, want 0", s)
	}
	// New events land in a fresh bucket.
	w.Add(3)
	if s := w.Sum(); s != 3 {
		t.Fatalf("Sum after re-add = %d, want 3", s)
	}
	if r := w.Rate(); r <= 0 {
		t.Fatalf("Rate = %v, want > 0", r)
	}
}

func TestPolicySourcesInSnapshot(t *testing.T) {
	r := telemetry.NewRegistry()
	r.RegisterPolicySource(func() []telemetry.PolicyStats {
		return []telemetry.PolicyStats{{Policy: "p1", Kind: "breaker", State: "closed",
			Counters: map[string]uint64{"tripped": 2}}}
	})
	snap := r.Snapshot()
	if len(snap.Policies) != 1 {
		t.Fatalf("Policies = %+v, want 1 row", snap.Policies)
	}
	p := snap.Policies[0]
	if p.Policy != "p1" || p.Kind != "breaker" || p.State != "closed" || p.Counters["tripped"] != 2 {
		t.Fatalf("row = %+v", p)
	}
}
