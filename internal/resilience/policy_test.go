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
				return p.Acquire(tx, s, km, 0)
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
	p.ObserveStall(core.StallEvent{})
	ran := false
	err := p.Run(func(*core.Txn) error { ran = true; return nil })
	if !errors.Is(err, resilience.ErrBreakerOpen) {
		t.Fatalf("Run on an open breaker: %v, want ErrBreakerOpen", err)
	}
	if ran {
		t.Fatal("section ran behind an open breaker")
	}
}

// TestManagerWiresSignals: the manager's stall feed must reach policy
// breakers, and after Stop a stall no longer does.
func TestManagerWiresSignals(t *testing.T) {
	prev := core.SetStallObserver(nil)
	defer core.SetStallObserver(prev)

	m := resilience.NewManager(nil)
	p := resilience.New("t", resilience.Config{
		Patience: time.Millisecond,
		Breaker:  &resilience.BreakerConfig{TripStallRate: 1, Cooldown: time.Minute},
	})
	m.Add(p)
	m.Start()

	// A real stall must land in the breaker window via the feed and
	// trip it on the spot.
	tbl, keys := keyedTable(t)
	s := core.NewSemantic(tbl)
	km := keys.Mode(3)
	s.Acquire(km)
	if err := s.AcquireWithin(km, time.Millisecond); err == nil {
		t.Fatal("acquisition against a live holder succeeded")
	}
	if p.Breaker().State() != resilience.BreakerOpen {
		t.Fatalf("breaker untouched by stall feed: %v", p.Breaker().State())
	}

	m.Stop()
	q := resilience.New("q", resilience.Config{
		Breaker: &resilience.BreakerConfig{TripStallRate: 1, Cooldown: time.Minute},
	})
	m.Add(q)
	if err := s.AcquireWithin(km, time.Millisecond); err == nil {
		t.Fatal("acquisition against a live holder succeeded")
	}
	s.Release(km)
	if q.Breaker().State() != resilience.BreakerClosed {
		t.Fatal("a stopped manager still fans stalls out")
	}
}
