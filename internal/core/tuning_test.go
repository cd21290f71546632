package core

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestSpinBoundsClampAndApply(t *testing.T) {
	tbl := mapTable(t, 8, TableOptions{})
	s := NewSemantic(tbl)
	if got := s.SpinBoundsNow(); got != DefaultSpinBounds() {
		t.Fatalf("initial bounds = %+v, want defaults %+v", got, DefaultSpinBounds())
	}
	s.SetSpinBounds(SpinBounds{Min: 0, Max: 1000})
	if got := s.SpinBoundsNow(); got != (SpinBounds{Min: 1, Max: spinBoundCap}) {
		t.Fatalf("clamped bounds = %+v", got)
	}
	s.SetSpinBounds(SpinBounds{Min: 10, Max: 3})
	if got := s.SpinBoundsNow(); got != (SpinBounds{Min: 10, Max: 10}) {
		t.Fatalf("inverted bounds = %+v, want Max raised to Min", got)
	}
}

func TestOptGatePackUnpackAndClamp(t *testing.T) {
	for _, p := range []OptGateParams{
		DefaultOptGateParams(),
		{Window: 2, DisableNum: 1, DisableDen: 255, ProbeInterval: 2},
		{Window: 1 << 15, DisableNum: 255, DisableDen: 255, ProbeInterval: 1 << 30},
	} {
		if got := unpackOptGate(packOptGate(p)); got != p {
			t.Fatalf("pack/unpack not identity: %+v -> %+v", p, got)
		}
	}
	c := OptGateParams{Window: 0, DisableNum: 9, DisableDen: 4, ProbeInterval: 0}.clamp()
	if c.Window != 2 || c.DisableNum != 4 || c.DisableDen != 4 || c.ProbeInterval != c.Window {
		t.Fatalf("clamp = %+v", c)
	}
	if c := (OptGateParams{Window: 64, DisableNum: 1, DisableDen: 0, ProbeInterval: 10}).clamp(); c.DisableDen != optDisableDen || c.ProbeInterval != 64 {
		t.Fatalf("zero-den clamp = %+v", c)
	}
}

// TestOptGateBoundary pins the disable threshold of the adaptive gate:
// with the default 1/4-per-64 parameters, exactly 16 failures in a
// 64-attempt window close the optimistic path; 15 do not. The comment
// in lockmech.go promises "close at >= num/den failures" — this is the
// test that keeps the comparison honest at the boundary.
func TestOptGateBoundary(t *testing.T) {
	tbl := mapTable(t, 8, TableOptions{})
	feed := func(s *Semantic, fails, total int) {
		for i := 0; i < total; i++ {
			s.recordValidation(i >= fails)
		}
	}

	s := NewSemantic(tbl)
	feed(s, 15, 64) // one below threshold
	if !s.OptimisticEnabled() {
		t.Fatal("gate closed at 15/64 failures, threshold is 16")
	}

	s = NewSemantic(tbl)
	feed(s, 16, 64) // exactly the threshold
	if s.OptimisticEnabled() {
		t.Fatal("gate open at 16/64 failures, threshold is 16")
	}

	// Retuned small window: 1-of-4 closes, 0-of-4 keeps open; the probe
	// interval (clamped up to the window) re-admits exactly one attempt
	// which re-opens the gate from its enabled state.
	s = NewSemantic(tbl)
	s.SetOptGateParams(OptGateParams{Window: 4, DisableNum: 1, DisableDen: 4, ProbeInterval: 4})
	feed(s, 0, 4)
	if !s.OptimisticEnabled() {
		t.Fatal("gate closed on an all-success window")
	}
	feed(s, 1, 4)
	if s.OptimisticEnabled() {
		t.Fatal("gate open at 1/4 failures with 1/4 threshold")
	}
	admitted := 0
	for i := 0; i < 4; i++ {
		if s.optimisticAllowed() {
			admitted++
		}
	}
	if admitted != 1 {
		t.Fatalf("closed gate admitted %d of 4 attempts, want exactly the probe", admitted)
	}
	if !s.OptimisticEnabled() {
		t.Fatal("gate still closed after the probe was admitted")
	}
}

// TestOptGateSingleCloser: hammer one window boundary from many
// goroutines. The CAS-elected closer must consume each window exactly
// once — under the old Store-based close, racing closers could evaluate
// one window twice and a failure burst could close the gate twice per
// window, visible here as the gate closing with a failure share below
// threshold.
func TestOptGateSingleCloser(t *testing.T) {
	tbl := mapTable(t, 8, TableOptions{})
	s := NewSemantic(tbl)
	// 1/4 threshold over tiny windows maximizes boundary crossings.
	s.SetOptGateParams(OptGateParams{Window: 4, DisableNum: 1, DisableDen: 4, ProbeInterval: 4})
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				s.recordValidation(true) // all successes: no window may ever close
			}
		}()
	}
	wg.Wait()
	if !s.OptimisticEnabled() {
		t.Fatal("all-success windows closed the gate")
	}
	st := s.Stats()
	if st.OptimisticHits != workers*20000 {
		t.Fatalf("hits = %d, want %d", st.OptimisticHits, workers*20000)
	}
}

// TestWaitTimingMidFlightToggle pins the satellite-3 semantics: a
// waiter parked BEFORE SetWaitTiming(true) settles with a ">=" lower
// bound measured from the enable instant instead of reporting zero —
// the same convention the watchdog uses for pre-Watch waiters — so a
// controller enabling wait timing mid-run reads conservative nonzero
// samples, not garbage.
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

// TestTuningRaceHammer is the satellite-4 stress: a background tuner
// cycles every runtime knob while workers run single, batched, and
// optimistic-accounting traffic. Run under -race it proves the knob
// plumbing introduces no torn reads; the post-join assertions prove no
// waiter leaked, the instance quiesced, and the stats stayed sane.
func TestTuningRaceHammer(t *testing.T) {
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
	var tunerWG sync.WaitGroup
	tunerWG.Add(1)
	go func() {
		defer tunerWG.Done()
		spins := []SpinBounds{{1, 2}, {1, 16}, DefaultSpinBounds(), {4, 64}}
		gates := []OptGateParams{
			{Window: 4, DisableNum: 1, DisableDen: 4, ProbeInterval: 8},
			DefaultOptGateParams(),
			{Window: 128, DisableNum: 1, DisableDen: 2, ProbeInterval: 1024},
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.SetSpinBounds(spins[i%len(spins)])
			s.SetOptGateParams(gates[i%len(gates)])
			s.SetSummaryScan(i%2 == 0)
			SetWaitTiming(i%4 < 2)
			runtime.Gosched()
		}
	}()

	// Monitor: lifetime counters must be monotone under concurrent
	// retuning — a torn or double-harvested counter shows up as a dip.
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
					if s.optimisticAllowed() {
						s.recordValidation(i%8 != 0)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	tunerWG.Wait()
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
