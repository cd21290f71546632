package core

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// Tests for the cancellable bounded-acquisition path (AcquireWithinCancel
// / LockWithinCancel) and the unified stall-observer hook. The cancel
// tests are named TestChaos* so CI's chaos job (-run Chaos) selects
// them: cancellation shares the timeout path's teardown machinery, and
// the races it can lose are the same ones.

// TestChaosCancelWithdrawsCleanly: closing the cancel channel while a
// bounded acquisition is parked must return ErrCanceled promptly and
// leave no trace — no registered waiter, no leaked claim, no stranded
// free-list entry.
func TestChaosCancelWithdrawsCleanly(t *testing.T) {
	// The subtest keeps the name it had while a v1 mechanism ran beside
	// it (CI selections and recorded test lists name it).
	t.Run("v2", func(t *testing.T) {
		tbl := mapTable(t, 1, TableOptions{})
		s := NewSemantic(tbl)
		km := keyMode(tbl, 5)
		s.Acquire(km)

		cancel := make(chan struct{})
		done := make(chan error, 1)
		go func() { done <- s.AcquireWithinCancel(km, time.Minute, cancel) }()

		waitParked(t, s, 1)
		close(cancel)
		select {
		case err := <-done:
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("want ErrCanceled, got %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("canceled waiter never returned")
		}

		// A canceled acquisition is not a stall: the caller left.
		if st := s.Stats().Stalls; st != 0 {
			t.Errorf("cancel counted as stall: %d", st)
		}
		s.Release(km)
		if err := s.CheckQuiesced(); err != nil {
			t.Fatal(err)
		}
		if n := WaitersOutstanding(); n != 0 {
			t.Fatalf("waiter free-list leaked: %d outstanding", n)
		}

		// A nil cancel is exactly AcquireWithin: acquisition succeeds
		// when uncontended.
		if err := s.AcquireWithinCancel(km, time.Second, nil); err != nil {
			t.Fatalf("nil-cancel acquisition: %v", err)
		}
		s.Release(km)
	})
}

// TestChaosLockWithinCancelLeavesTxnUntouched: a canceled LockWithinCancel
// must leave the transaction exactly as it was — earlier holds intact,
// nothing recorded for the canceled acquisition.
func TestChaosLockWithinCancelLeavesTxnUntouched(t *testing.T) {
	tbl := mapTable(t, 1, TableOptions{})
	s := NewSemantic(tbl)
	other := NewSemantic(tbl)
	km := keyMode(tbl, 2)
	s.Acquire(km)

	tx := NewCheckedTxn()
	tx.Lock(other, keyMode(tbl, 1), 0)

	cancel := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- tx.LockWithinCancel(s, km, 1, time.Minute, cancel) }()
	waitParked(t, s, 1)
	close(cancel)
	if err := <-done; !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if tx.HeldCount() != 1 {
		t.Errorf("canceled LockWithinCancel changed holds: %d", tx.HeldCount())
	}
	tx.UnlockAll()
	s.Release(km)
	if err := s.CheckQuiesced(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosCancelReleaseRace hammers cancellation against releases and
// timeouts landing together, the same window the wake-token re-donation
// covers: whatever interleaving occurs, every round must end quiescent
// with nothing leaked. Run under -race.
func TestChaosCancelReleaseRace(t *testing.T) {
	// The subtest keeps the name it had while a v1 mechanism ran beside
	// it (CI selections and recorded test lists name it).
	t.Run("v2", func(t *testing.T) {
		tbl := mapTable(t, 1, TableOptions{})
		s := NewSemantic(tbl)
		km := keyMode(tbl, 1)
		rounds := 300
		if testing.Short() {
			rounds = 50
		}
		for r := 0; r < rounds; r++ {
			s.Acquire(km)
			cancel := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < 3; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					patience := time.Duration(200+(r*7+w*131)%1800) * time.Microsecond
					if err := s.AcquireWithinCancel(km, patience, cancel); err == nil {
						s.Release(km)
					}
				}(w)
			}
			// Sweep the cancel across the waiters' deadlines and the
			// release as rounds advance.
			time.Sleep(time.Duration((r*11)%1500) * time.Microsecond)
			close(cancel)
			time.Sleep(time.Duration((r*5)%500) * time.Microsecond)
			s.Release(km)
			wg.Wait()
			if err := s.CheckQuiesced(); err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
		}
		if n := WaitersOutstanding(); n != 0 {
			t.Fatalf("waiter free-list leaked: %d outstanding", n)
		}
	})
}

// TestStallObserverUnifiedClock: both stall clocks — the timeout path's
// self-clocked StallError and the watchdog's threshold scan — must feed
// the single process-wide observer, tagged by source, for the same
// instance and mechanism.
func TestStallObserverUnifiedClock(t *testing.T) {
	var mu sync.Mutex
	var events []StallEvent
	prev := SetStallObserver(func(ev StallEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	defer SetStallObserver(prev)

	tbl := mapTable(t, 1, TableOptions{})
	s := NewSemantic(tbl)
	km := keyMode(tbl, 4)
	s.Acquire(km)

	// Clock one: bounded acquisition times out.
	patience := 10 * time.Millisecond
	if err := s.AcquireWithin(km, patience); err == nil {
		t.Fatal("acquisition against a live holder succeeded")
	}

	// Clock two: watchdog finds a parked waiter past threshold.
	d := NewWatchdog(WatchdogConfig{Threshold: 5 * time.Millisecond})
	d.Watch(s)
	blocked := make(chan error, 1)
	go func() { blocked <- s.AcquireWithin(km, time.Minute) }()
	waitParked(t, s, 2)
	time.Sleep(10 * time.Millisecond)
	if n := len(d.Scan()); n == 0 {
		t.Fatal("watchdog scan found no stalled mechanism")
	}
	s.Release(km)
	if err := <-blocked; err != nil {
		t.Fatalf("parked waiter after release: %v", err)
	}
	s.Release(km)

	mu.Lock()
	defer mu.Unlock()
	var timeouts, watchdogs int
	for _, ev := range events {
		if ev.Instance != s.ID() {
			t.Errorf("event for unexpected instance %d", ev.Instance)
		}
		switch ev.Source {
		case StallTimeout:
			timeouts++
			if ev.Waiters != 1 {
				t.Errorf("timeout event Waiters = %d, want 1", ev.Waiters)
			}
			if ev.Waited < patience {
				t.Errorf("timeout event Waited = %v, below patience %v", ev.Waited, patience)
			}
		case StallWatchdog:
			watchdogs++
			if ev.Waiters < 1 {
				t.Errorf("watchdog event Waiters = %d, want >=1", ev.Waiters)
			}
		}
	}
	if timeouts != 1 {
		t.Errorf("timeout events = %d, want 1", timeouts)
	}
	if watchdogs < 1 {
		t.Errorf("watchdog events = %d, want >=1", watchdogs)
	}
}
