package resilience_test

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/resilience"
)

// TestPolicyStallTyped: a section that stalls comes back as its
// *StallError — nothing is retried — with its locks released, the
// stall counted, and no goroutine leaked. Run under -race.
func TestPolicyStallTyped(t *testing.T) {
	tbl, keys := keyedTable(t)
	s := core.NewSemantic(tbl)
	km := keys.Mode(1)
	s.Acquire(km) // permanent conflicting holder

	before := runtime.NumGoroutine()
	p := resilience.New("t", resilience.Config{Patience: 2 * time.Millisecond})

	var wg sync.WaitGroup
	errs := make([]error, 4)
	runs := make([]int, 4)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = p.Run(func(tx *core.Txn) error {
				runs[g]++
				return tx.LockWithin(s, km, 0, p.Patience())
			})
		}(g)
	}
	wg.Wait()

	for g, err := range errs {
		var stall *core.StallError
		if !errors.As(err, &stall) {
			t.Fatalf("caller %d: want *core.StallError, got %v", g, err)
		}
		if runs[g] != 1 {
			t.Fatalf("caller %d: section ran %d times, want 1", g, runs[g])
		}
	}
	if got := p.Stats()[0].Counters["stall_failures"]; got != 4 {
		t.Fatalf("stall_failures = %d, want 4", got)
	}
	s.Release(km)
	if err := s.CheckQuiesced(); err != nil {
		t.Fatal(err)
	}
	checkGoroutines(t, before)
}

// TestPolicyOpenBreakerRefusesBeforeSection: while the breaker is open,
// Run answers ErrBreakerOpen without running the section, so a refused
// caller touches no lock.
func TestPolicyOpenBreakerRefusesBeforeSection(t *testing.T) {
	p := resilience.New("t", resilience.Config{
		Breaker: &resilience.BreakerConfig{TripStallRate: 1, Cooldown: time.Minute},
	})
	p.Breaker().RecordStall()
	ran := false
	err := p.Run(func(*core.Txn) error { ran = true; return nil })
	if !errors.Is(err, resilience.ErrBreakerOpen) {
		t.Fatalf("Run on an open breaker: %v, want ErrBreakerOpen", err)
	}
	if ran {
		t.Fatal("section ran behind an open breaker")
	}
}

// TestNilPolicyIsAtomically: a nil policy has no breaker and no bound —
// Run runs the section once as core.Atomically and returns its error,
// and Patience is core.Forever.
func TestNilPolicyIsAtomically(t *testing.T) {
	var p *resilience.Policy
	if got := p.Patience(); got != core.Forever {
		t.Fatalf("nil Patience = %v, want core.Forever", got)
	}
	tbl, keys := keyedTable(t)
	s := core.NewSemantic(tbl)
	km := keys.Mode(2)
	runs := 0
	if err := p.Run(func(tx *core.Txn) error {
		runs++
		return tx.LockWithin(s, km, 0, p.Patience())
	}); err != nil || runs != 1 {
		t.Fatalf("nil Run = %v after %d runs, want nil after 1", err, runs)
	}
	want := errors.New("aborted")
	if err := p.Run(func(*core.Txn) error { return want }); err != want {
		t.Fatalf("nil Run returned %v, want the section's error", err)
	}
	if err := s.CheckQuiesced(); err != nil {
		t.Fatal(err)
	}
}

// TestBreakerCountsOwnStalls: a policy's breaker needs no wiring
// beyond New and counts only the stalls its own sections return. A
// stalled Run on A opens A and leaves B closed, and a bare
// AcquireWithin stall outside any policy opens neither.
func TestBreakerCountsOwnStalls(t *testing.T) {
	cfg := resilience.Config{
		Patience: time.Millisecond,
		Breaker:  &resilience.BreakerConfig{TripStallRate: 1, Cooldown: time.Minute},
	}
	a, b := resilience.New("a", cfg), resilience.New("b", cfg)

	tbl, keys := keyedTable(t)
	s := core.NewSemantic(tbl)
	km := keys.Mode(3)
	s.Acquire(km) // permanent conflicting holder

	if err := s.AcquireWithin(km, time.Millisecond); err == nil {
		t.Fatal("acquisition against a live holder succeeded")
	}
	if sa, sb := a.Breaker().State(), b.Breaker().State(); sa != resilience.BreakerClosed || sb != resilience.BreakerClosed {
		t.Fatalf("a stall outside any policy moved the breakers: a %v, b %v", sa, sb)
	}

	err := a.Run(func(tx *core.Txn) error { return tx.LockWithin(s, km, 0, a.Patience()) })
	var stall *core.StallError
	if !errors.As(err, &stall) {
		t.Fatalf("Run on a: %v, want *core.StallError", err)
	}
	if st := a.Breaker().State(); st != resilience.BreakerOpen {
		t.Fatalf("breaker a %v after its own stall, want open", st)
	}
	if st := b.Breaker().State(); st != resilience.BreakerClosed {
		t.Fatalf("breaker b %v after a's stall, want closed", st)
	}
	s.Release(km)
	if err := s.CheckQuiesced(); err != nil {
		t.Fatal(err)
	}
}
