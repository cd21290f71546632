package telemetry_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
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

// TestStallFeedUnifiesClocks: both core stall sources must land in the
// feed's single window, split by source in the lifetime counts, and fan
// out to subscribers.
func TestStallFeedUnifiesClocks(t *testing.T) {
	f := telemetry.NewStallFeed(time.Second, 4)
	prev := f.Install()
	defer core.SetStallObserver(prev)

	var mu sync.Mutex
	var seen []core.StallEvent
	f.Subscribe(func(ev core.StallEvent) {
		mu.Lock()
		seen = append(seen, ev)
		mu.Unlock()
	})

	tbl, keys, _ := keyedTable(t)
	s := core.NewSemantic(tbl)
	m := keys.Mode(1)
	s.Acquire(m)
	if err := s.AcquireWithin(m, 5*time.Millisecond); err == nil {
		t.Fatal("acquisition against a live holder succeeded")
	}
	s.Release(m)

	if got := f.Sum(); got != 1 {
		t.Fatalf("windowed sum = %d, want 1", got)
	}
	timeouts, watchdog := f.Counts()
	if timeouts != 1 || watchdog != 0 {
		t.Fatalf("counts = (%d,%d), want (1,0)", timeouts, watchdog)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 1 || seen[0].Source != core.StallTimeout {
		t.Fatalf("subscriber saw %+v, want one timeout event", seen)
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
