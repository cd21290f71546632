package core

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// These tests pin the wait-duration contract: getWaiter stamps every
// waiter with its park time, ScanStalls and LockStats.WaitNanos both
// measure from that one stamp, and SetWaitTiming gates only whether
// WaitNanos accumulates. StallError measures its own patience.

// TestStallErrorWaitedUnwatched: a bounded acquisition that times out
// on an instance nobody watches must still report a real, measured wait
// duration — the timeout path has its own clock and never depended on
// the waiter timestamp.
func TestStallErrorWaitedUnwatched(t *testing.T) {
	tbl := mapTable(t, 1, TableOptions{}) // n=1: key modes conflict with size
	s := NewSemantic(tbl)
	km, sm := keyMode(tbl, 1), sizeMode(tbl)
	s.Acquire(km)
	defer s.Release(km)

	const patience = 30 * time.Millisecond
	err := s.AcquireWithin(sm, patience)
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("got %v, want *StallError", err)
	}
	if se.Waited < patience {
		t.Errorf("StallError.Waited = %v, want >= %v (unwatched instance must measure its own wait)",
			se.Waited, patience)
	}
	if len(se.Holders) == 0 {
		t.Error("StallError names no holders")
	}
	if got := s.Stats().Stalls; got != 1 {
		t.Errorf("Stats().Stalls = %d, want 1", got)
	}
}

// TestWatchdogReportsPreWatchWaiter: a waiter that parked before the
// first scan, with wait timing off, is reported like any other, and its
// wait grows across scans.
func TestWatchdogReportsPreWatchWaiter(t *testing.T) {
	prev := waitSampling.Load()
	SetWaitTiming(false)
	defer SetWaitTiming(prev)

	tbl := mapTable(t, 1, TableOptions{})
	s := NewSemantic(tbl)
	km, sm := keyMode(tbl, 1), sizeMode(tbl)
	s.Acquire(km)

	acquired := make(chan struct{})
	go func() {
		s.Acquire(sm) // parks: conflicts with km, before any scan
		close(acquired)
	}()
	// Wait for the waiter to actually register (past the adaptive spin).
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mechs[0].mu.Lock()
		n := len(s.mechs[0].waiters)
		s.mechs[0].mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never registered")
		}
		time.Sleep(time.Millisecond)
	}

	time.Sleep(15 * time.Millisecond) // let the wait cross the threshold

	reports := ScanStalls(5*time.Millisecond, s)
	if len(reports) == 0 {
		t.Fatal("waiter parked before the first scan was not reported")
	}
	r := reports[0]
	if len(r.Waiters) != 1 {
		t.Fatalf("report waiters = %+v, want exactly 1", r.Waiters)
	}
	w := r.Waiters[0]
	if w.Waited <= 0 {
		t.Errorf("Waited = %v, want > 0", w.Waited)
	}

	// The wait keeps growing across scans — a stuck waiter can't hide.
	time.Sleep(10 * time.Millisecond)
	again := ScanStalls(5*time.Millisecond, s)
	if len(again) == 0 || len(again[0].Waiters) != 1 {
		t.Fatal("waiter vanished from second scan")
	}
	if again[0].Waiters[0].Waited <= w.Waited {
		t.Errorf("wait did not grow: %v then %v", w.Waited, again[0].Waiters[0].Waited)
	}

	s.Release(km)
	<-acquired
	s.Release(sm)
}

// TestWatchdogSampledWaiter: a waiter that parks on a scanned instance
// is reported with its measured wait.
func TestWatchdogSampledWaiter(t *testing.T) {
	tbl := mapTable(t, 1, TableOptions{})
	s := NewSemantic(tbl)
	km, sm := keyMode(tbl, 1), sizeMode(tbl)

	s.Acquire(km)
	acquired := make(chan struct{})
	go func() {
		s.Acquire(sm)
		close(acquired)
	}()
	time.Sleep(20 * time.Millisecond)

	reports := ScanStalls(5*time.Millisecond, s)
	if len(reports) == 0 {
		t.Fatal("parked waiter not reported")
	}
	w := reports[0].Waiters[0]
	if w.Waited <= 0 {
		t.Errorf("Waited = %v, want > 0", w.Waited)
	}

	s.Release(km)
	<-acquired
	s.Release(sm)
}

// TestWaitNanosGating: LockStats.WaitNanos accumulates only when wait
// timing is on; otherwise blocking costs
// no clock call and the counter stays zero.
func TestWaitNanosGating(t *testing.T) {
	block := func(s *Semantic, km, sm ModeID) {
		s.Acquire(km)
		acquired := make(chan struct{})
		go func() {
			s.Acquire(sm)
			close(acquired)
		}()
		time.Sleep(20 * time.Millisecond)
		s.Release(km)
		<-acquired
		s.Release(sm)
	}

	prev := waitSampling.Load()
	defer SetWaitTiming(prev)

	SetWaitTiming(false)
	tbl := mapTable(t, 1, TableOptions{})
	s := NewSemantic(tbl)
	block(s, keyMode(tbl, 1), sizeMode(tbl))
	if st := s.Stats(); st.WaitNanos != 0 {
		t.Errorf("WaitNanos = %d with timing off, want 0", st.WaitNanos)
	}

	SetWaitTiming(true)
	s2 := NewSemantic(tbl)
	block(s2, keyMode(tbl, 1), sizeMode(tbl))
	if st := s2.Stats(); st.Waits == 0 || st.WaitNanos <= 0 {
		t.Errorf("stats = %+v with timing on, want measured WaitNanos > 0", st)
	}
}

// TestBatchStatsContract: one AcquireBatch counts once per mechanism
// group in LockStats — Batches 1, FastPath 1 on the optimistic path —
// so FastPath+Slow-Batches recovers the single-mode acquisition count.
func TestBatchStatsContract(t *testing.T) {
	tbl := mapTable(t, 8, TableOptions{})
	s := NewSemantic(tbl)
	m0, m1 := keyMode(tbl, 0), keyMode(tbl, 1)
	if m0 == m1 {
		t.Fatal("test premise: distinct key modes")
	}
	s.AcquireBatch(m0, m1)
	st := s.Stats()
	if st.Batches != 1 || st.FastPath+st.Slow != 1 {
		t.Errorf("stats after one batched acquisition = %+v, want Batches=1 counted once in FastPath+Slow", st)
	}
	s.Release(m0)
	s.Release(m1)
}

// TestWaitTimingMidFlightToggle: a waiter parked BEFORE
// SetWaitTiming(true) settles with a ">=" lower bound measured from the
// enable instant instead of reporting zero, so a metrics consumer attaching
// mid-run reads conservative nonzero samples, not garbage.
func TestWaitTimingMidFlightToggle(t *testing.T) {
	SetWaitTiming(false)
	defer SetWaitTiming(false)
	tbl := mapTable(t, 1, TableOptions{}) // n=1: key modes conflict with size
	s := NewSemantic(tbl)
	km, sm := keyMode(tbl, 7), sizeMode(tbl)

	s.Acquire(km)
	done := make(chan struct{})
	go func() {
		s.Acquire(sm) // parks: conflicts with the held key mode
		s.Release(sm)
		close(done)
	}()
	// Wait until the waiter is parked (Waits counts the park).
	for deadline := time.Now().Add(2 * time.Second); s.Stats().Waits == 0; {
		if time.Now().After(deadline) {
			t.Fatal("waiter never parked")
		}
		runtime.Gosched()
	}

	// Enable wait timing with the waiter already parked, then hold the
	// lock long enough that the lower bound is unmistakably nonzero.
	SetWaitTiming(true)
	const hold = 40 * time.Millisecond
	time.Sleep(hold)
	s.Release(km)
	<-done

	got := time.Duration(s.Stats().WaitNanos)
	if got < hold/2 {
		t.Fatalf("WaitNanos = %v after mid-flight enable, want >= ~%v (lower bound from enable instant)", got, hold)
	}

	// Control: with timing off again, a fresh pre-parked waiter settles
	// with no credit at all — the bound only applies while a gate is
	// open at settle time.
	SetWaitTiming(false)
	base := s.Stats().WaitNanos
	s.Acquire(km)
	done2 := make(chan struct{})
	go func() {
		s.Acquire(sm)
		s.Release(sm)
		close(done2)
	}()
	for deadline := time.Now().Add(2 * time.Second); s.Stats().Waits < 2; {
		if time.Now().After(deadline) {
			t.Fatal("second waiter never parked")
		}
		runtime.Gosched()
	}
	time.Sleep(10 * time.Millisecond)
	s.Release(km)
	<-done2
	if after := s.Stats().WaitNanos; after != base {
		t.Fatalf("WaitNanos moved %d -> %d with timing off", base, after)
	}
}

// TestWaitTimingToggleHammer: a background goroutine flips global wait
// timing on and off while workers run single, batched, and
// optimistic-accounting traffic on a summary-maintaining instance. Run
// under -race it proves waiters parked on either side of a flip settle
// without torn reads; the post-join assertions prove no waiter leaked,
// the instance quiesced, and the stats stayed monotone.
func TestWaitTimingToggleHammer(t *testing.T) {
	defer SetWaitTiming(false)
	tbl := mapTable(t, 64, TableOptions{}) // wide φ: summaries maintained
	s := NewSemantic(tbl)
	ref := tbl.Set(SymSetOf(
		SymOpOf("get", VarArg("k")), SymOpOf("put", VarArg("k"), Star()), SymOpOf("remove", VarArg("k"))))

	iters := 4000
	if testing.Short() {
		iters = 500
	}

	stop := make(chan struct{})
	var toggleWG sync.WaitGroup
	toggleWG.Add(1)
	go func() {
		defer toggleWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			SetWaitTiming(i%4 < 2)
			runtime.Gosched()
		}
	}()

	// Monitor: lifetime counters must be monotone under concurrent
	// toggling — a torn or double-harvested counter shows up as a dip.
	var monWG sync.WaitGroup
	monWG.Add(1)
	go func() {
		defer monWG.Done()
		var prev LockStats
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := s.Stats()
			if st.FastPath < prev.FastPath || st.Slow < prev.Slow ||
				st.Waits < prev.Waits || st.Batches < prev.Batches ||
				st.OptimisticHits < prev.OptimisticHits ||
				st.OptimisticRetries < prev.OptimisticRetries ||
				st.WaitNanos < prev.WaitNanos {
				t.Errorf("LockStats went backwards: %+v -> %+v", prev, st)
				return
			}
			prev = st
			time.Sleep(100 * time.Microsecond)
		}
	}()

	workers := 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sm := sizeMode(tbl)
			for i := 0; i < iters; i++ {
				k := Value((w*31 + i) % 64)
				m := ref.Mode1(k)
				switch i % 4 {
				case 0:
					s.Acquire(m)
					s.Release(m)
				case 1:
					s.AcquireBatch(m, sm)
					s.Release(m)
					s.Release(sm)
				case 2:
					s.Acquire(sm) // wildcard: conflicts with every key mode
					s.Release(sm)
				default:
					var sn Snapshot
					if sn.Observe(s, m) {
						sn.Validate()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	toggleWG.Wait()
	monWG.Wait()

	if err := s.CheckQuiesced(); err != nil {
		t.Fatalf("instance not quiescent after hammer: %v", err)
	}
	if n := WaitersOutstanding(); n != 0 {
		t.Fatalf("WaitersOutstanding = %d after hammer, want 0", n)
	}
	st := s.Stats()
	if st.FastPath+st.Slow+st.Batches == 0 {
		t.Fatal("hammer recorded no acquisitions at all")
	}
}
