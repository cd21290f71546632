package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/padded"
)

// Tests specific to lock mechanism v2: the padded-counter layout, the
// summary-based conflict scan, the targeted-wakeup waiter registry, and
// the adaptive fast-path bound.

// TestMechV2CounterLayout asserts the property padding exists for: each
// mode counter occupies its own cache line.
func TestMechV2CounterLayout(t *testing.T) {
	tbl := mapTable(t, 8, TableOptions{})
	s := NewSemantic(tbl)
	for mi := range s.mechs {
		counts := s.mechs[mi].counts
		for i := 1; i < len(counts); i++ {
			d := uintptr(unsafe.Pointer(&counts[i])) - uintptr(unsafe.Pointer(&counts[i-1]))
			if d != padded.CacheLineSize {
				t.Fatalf("mech %d: counters %d bytes apart, want %d", mi, d, padded.CacheLineSize)
			}
		}
	}
}

// TestMechV2SummaryInvariant: after any quiescent acquire/release
// pattern, each word summary equals the number of held claims in the
// word (the over-approximation is exact at rest).
func TestMechV2SummaryInvariant(t *testing.T) {
	// φ=64 puts the size wildcard's mask above summaryCutoffSlots, so the
	// merged mechanism maintains summaries.
	tbl := mapTable(t, 64, TableOptions{})
	s := NewSemantic(tbl)
	for mi := range s.mechs {
		if !s.mechs[mi].maintainSummary {
			t.Fatal("test premise: wildcard mechanism must maintain summaries")
		}
	}
	modes := []ModeID{keyMode(tbl, 0), keyMode(tbl, 1), keyMode(tbl, 2), sizeMode(tbl)}
	check := func(want int32) {
		t.Helper()
		var total int32
		for mi := range s.mechs {
			for w := range s.mechs[mi].summary {
				total += s.mechs[mi].summary[w].Load()
			}
		}
		if total != want {
			t.Fatalf("summary total = %d, want %d", total, want)
		}
	}
	check(0)
	s.Acquire(modes[0])
	check(1)
	s.Acquire(modes[1])
	check(2)
	s.Release(modes[0])
	check(1)
	s.Release(modes[1])
	check(0)
	// A failed TryAcquire must leave no residue.
	s.Acquire(modes[0])
	if s.TryAcquire(modes[3]) { // size conflicts with held put mode
		t.Fatal("conflicting TryAcquire succeeded")
	}
	check(1)
	s.Release(modes[0])
	check(0)
}

// TestMechV2SummaryOff: a narrow-mask mechanism (no wildcard wide enough
// to amortize maintenance) statically disables summaries; claims touch
// only their own counter, scans are exact, and exclusion still holds.
func TestMechV2SummaryOff(t *testing.T) {
	tbl := mapTable(t, 4, TableOptions{}) // size mask = 4 slots < cutoff
	s := NewSemantic(tbl)
	for mi := range s.mechs {
		if s.mechs[mi].maintainSummary {
			t.Fatal("narrow-mask mechanism should not maintain summaries")
		}
	}
	k, sz := keyMode(tbl, 1), sizeMode(tbl)
	s.Acquire(k)
	for mi := range s.mechs {
		for w := range s.mechs[mi].summary {
			if got := s.mechs[mi].summary[w].Load(); got != 0 {
				t.Fatalf("summary[%d] = %d with summaries off", w, got)
			}
		}
	}
	if s.TryAcquire(sz) {
		t.Fatal("size acquired while conflicting put mode held")
	}
	if !s.TryAcquire(keyMode(tbl, 2)) {
		t.Fatal("commuting mode refused")
	}
	s.Release(keyMode(tbl, 2))
	s.Release(k)
	if !s.TryAcquire(sz) {
		t.Fatal("size refused on an idle instance")
	}
	s.Release(sz)
}

// TestTargetedWakeup is the regression test for the per-slot wait-list
// path: holders pin N disjoint buckets, one waiter blocks per bucket,
// and releasing one bucket must wake only that bucket's waiter. A
// broadcast would bounce every waiter through an extra failed scan,
// which is observable as extra LockStats.Waits.
func TestTargetedWakeup(t *testing.T) {
	const n = 8
	assign := make(map[Value]int, n)
	for b := 0; b < n; b++ {
		assign[b] = b
	}
	tbl := mapTable(t, n, TableOptions{Phi: NewFixedPhi(n, 0, assign)})
	s := NewSemantic(tbl)

	modes := make([]ModeID, n)
	for b := 0; b < n; b++ {
		modes[b] = keyMode(tbl, b)
		if tbl.Commute(modes[b], modes[b]) {
			t.Fatal("test premise: per-bucket put mode must self-conflict")
		}
		for a := 0; a < b; a++ {
			if !tbl.Commute(modes[a], modes[b]) {
				t.Fatal("test premise: distinct-bucket modes must commute")
			}
		}
	}

	// Pin every bucket.
	for b := 0; b < n; b++ {
		s.Acquire(modes[b])
	}
	// One waiter per bucket; all must block.
	done := make([]chan struct{}, n)
	for b := 0; b < n; b++ {
		done[b] = make(chan struct{})
		go func(b int) {
			s.Acquire(modes[b])
			close(done[b])
		}(b)
	}
	// Wait until every waiter has actually slept at least once.
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Waits < n {
		if time.Now().After(deadline) {
			t.Fatalf("waiters never blocked: stats %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	waitsBefore := s.Stats().Waits

	// Release bucket 0: only waiter 0 may proceed.
	s.Release(modes[0])
	select {
	case <-done[0]:
	case <-time.After(5 * time.Second):
		t.Fatal("eligible waiter not woken")
	}
	for b := 1; b < n; b++ {
		select {
		case <-done[b]:
			t.Fatalf("waiter %d woke without its bucket being released", b)
		default:
		}
	}
	// Targeted wakeups: the n-1 ineligible waiters must not have been
	// bounced through extra failed scans. (The woken waiter acquires on
	// its first re-scan, adding no Waits.)
	if extra := s.Stats().Waits - waitsBefore; extra != 0 {
		t.Errorf("release caused %d extra waits; broadcast wakeup leaked in", extra)
	}

	// Release the rest; every waiter must eventually get through.
	for b := 1; b < n; b++ {
		s.Release(modes[b])
	}
	for b := 1; b < n; b++ {
		select {
		case <-done[b]:
		case <-time.After(5 * time.Second):
			t.Fatalf("waiter %d lost its wakeup", b)
		}
	}
	for b := 0; b < n; b++ {
		s.Release(modes[b]) // waiters' own holds
	}
}

// TestNoLostWakeupChurn hammers conflicting modes from many goroutines
// under -race: every acquirer must eventually get through (a lost
// wakeup deadlocks the run and trips the test timeout).
func TestNoLostWakeupChurn(t *testing.T) {
	tbl := mapTable(t, 4, TableOptions{})
	s := NewSemantic(tbl)
	sm := sizeMode(tbl)
	const goroutines = 16
	const iters = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if (g+i)%7 == 0 {
					s.Acquire(sm)
					s.Release(sm)
				} else {
					m := keyMode(tbl, (g*13+i)%64)
					s.Acquire(m)
					s.Release(m)
				}
			}
		}(g)
	}
	donech := make(chan struct{})
	go func() { wg.Wait(); close(donech) }()
	select {
	case <-donech:
	case <-time.After(2 * time.Minute):
		t.Fatal("churn did not complete: lost wakeup or deadlock")
	}
}

// TestAdaptiveSpinBounds: the fast-path retry bound must stay within
// [minSpin, maxSpin] under both friendly and hostile workloads.
func TestAdaptiveSpinBounds(t *testing.T) {
	tbl := mapTable(t, 1, TableOptions{})
	s := NewSemantic(tbl)
	km, sm := keyMode(tbl, 7), sizeMode(tbl)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := km
			if g%2 == 0 {
				m = sm
			}
			for i := 0; i < 2000; i++ {
				s.Acquire(m)
				s.Release(m)
			}
		}(g)
	}
	wg.Wait()
	for i := range s.mechs {
		if b := s.mechs[i].spin.Load(); b < minSpin || b > maxSpin {
			t.Errorf("mech %d spin bound %d outside [%d,%d]", i, b, minSpin, maxSpin)
		}
	}
}

// TestDisableFastPathV2: ablation A4 on top of v2 still excludes.
func TestDisableFastPathV2(t *testing.T) {
	tbl := mapTable(t, 1, TableOptions{})
	s := NewSemantic(tbl)
	s.disableFastPath = true
	km, sm := keyMode(tbl, 7), sizeMode(tbl)
	var inside, violations atomic.Int32
	var wg sync.WaitGroup
	for _, m := range []ModeID{km, sm} {
		wg.Add(1)
		go func(m ModeID) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Acquire(m)
				if inside.Add(1) != 1 {
					violations.Add(1)
				}
				inside.Add(-1)
				s.Release(m)
			}
		}(m)
	}
	wg.Wait()
	if violations.Load() != 0 {
		t.Errorf("%d violations with fast path disabled on v2", violations.Load())
	}
	if st := s.Stats(); st.FastPath != 0 {
		t.Errorf("fast path used %d times despite disableFastPath", st.FastPath)
	}
}

// TestBinderNoAlloc: the bound mode selectors must not allocate (they
// sit on the per-operation mode-selection path). Both the identity
// permutation and the reordering permutation are covered.
func TestBinderNoAlloc(t *testing.T) {
	set := SymSetOf(SymOpOf("put", VarArg("a"), VarArg("b")))
	oneVar := SymSetOf(SymOpOf("get", VarArg("k")))
	tbl := NewModeTable(mapSpec(), []SymSet{set, oneVar}, TableOptions{Phi: NewPhi(8)})
	ref := tbl.Set(set)
	vars := ref.Vars()

	// Fixed-arity selectors: fully allocation-free (boxed small ints are
	// interned by the runtime, and there is no argument slice at all).
	b2 := ref.Binder2(vars[0], vars[1])
	b2r := ref.Binder2(vars[1], vars[0])
	b1 := tbl.Set(oneVar).Binder1("k")
	if n := testing.AllocsPerRun(100, func() { b2(3, 5) }); n != 0 {
		t.Errorf("Binder2 allocates %.1f per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { b2r(5, 3) }); n != 0 {
		t.Errorf("reordering Binder2 allocates %.1f per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { b1(7) }); n != 0 {
		t.Errorf("Binder1 allocates %.1f per call, want 0", n)
	}
	if b2(3, 5) != b2r(5, 3) {
		t.Error("reordering Binder2 selected a different mode")
	}
	if b2(3, 5) != ref.Mode(3, 5) {
		t.Error("Binder2 disagrees with Mode")
	}
	if b1(7) != tbl.Set(oneVar).Mode(7) {
		t.Error("Binder1 disagrees with Mode")
	}

}
