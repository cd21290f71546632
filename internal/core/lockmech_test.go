package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// exclusiveTable builds a table with a single self-conflicting mode
// (an exclusive lock) plus two mutually-commuting per-bucket modes.
func mapTable(t *testing.T, n int, opts TableOptions) *ModeTable {
	t.Helper()
	if opts.Phi == nil {
		opts.Phi = NewPhi(n)
	}
	sets := []SymSet{
		SymSetOf(SymOpOf("get", VarArg("k")), SymOpOf("put", VarArg("k"), Star()), SymOpOf("remove", VarArg("k"))),
		SymSetOf(SymOpOf("size")),
	}
	return NewModeTable(mapSpec(), sets, opts)
}

func keyMode(tbl *ModeTable, k Value) ModeID {
	return tbl.Set(SymSetOf(
		SymOpOf("get", VarArg("k")), SymOpOf("put", VarArg("k"), Star()), SymOpOf("remove", VarArg("k")),
	)).Mode(k)
}

func sizeMode(tbl *ModeTable) ModeID {
	return tbl.Set(SymSetOf(SymOpOf("size"))).Mode()
}

// TestMutualExclusionConflicting: two goroutines repeatedly acquiring
// non-commuting modes must never be inside the critical section
// together.
func TestMutualExclusionConflicting(t *testing.T) {
	tbl := mapTable(t, 1, TableOptions{}) // n=1: every key mode conflicts with size
	s := NewSemantic(tbl)
	km := keyMode(tbl, 7)
	sm := sizeMode(tbl)
	if tbl.Commute(km, sm) {
		t.Fatal("test premise: key mode and size mode must conflict")
	}
	var inside atomic.Int32
	var violations atomic.Int32
	var wg sync.WaitGroup
	const iters = 2000
	run := func(m ModeID) {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			s.Acquire(m)
			if inside.Add(1) != 1 {
				violations.Add(1)
			}
			inside.Add(-1)
			s.Release(m)
		}
	}
	wg.Add(2)
	go run(km)
	go run(sm)
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Errorf("%d mutual-exclusion violations", v)
	}
}

// TestSelfConflictingMode: a mode with F_c(m,m)=false behaves as an
// exclusive lock among its own holders.
func TestSelfConflictingMode(t *testing.T) {
	tbl := mapTable(t, 1, TableOptions{})
	s := NewSemantic(tbl)
	km := keyMode(tbl, 3) // with n=1, put(α1,*) self-conflicts... verify
	if tbl.Commute(km, km) {
		t.Skip("premise: key mode self-commutes in this configuration")
	}
	var inside, violations atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Acquire(km)
				if inside.Add(1) != 1 {
					violations.Add(1)
				}
				inside.Add(-1)
				s.Release(km)
			}
		}()
	}
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Errorf("%d exclusion violations on self-conflicting mode", v)
	}
}

// TestCommutingModesRunConcurrently: holders of commuting modes must not
// block each other — a second acquire while the first is held completes.
func TestCommutingModesRunConcurrently(t *testing.T) {
	phi := NewFixedPhi(2, 1, map[Value]int{1: 0})
	tbl := mapTable(t, 2, TableOptions{Phi: phi})
	s := NewSemantic(tbl)
	m1 := keyMode(tbl, 1) // bucket α1
	m2 := keyMode(tbl, 2) // bucket α2
	if !tbl.Commute(m1, m2) {
		t.Fatal("premise: distinct-bucket key modes must commute")
	}
	s.Acquire(m1)
	done := make(chan struct{})
	go func() {
		s.Acquire(m2) // must not block on m1
		s.Release(m2)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("commuting mode acquisition blocked")
	}
	s.Release(m1)
}

// TestSameModeMultipleHolders: a self-commuting mode admits many
// simultaneous holders (Example 2.4: two transactions may both hold
// {add(v) | v ∈ Value}).
func TestSameModeMultipleHolders(t *testing.T) {
	addSet := SymSetOf(SymOpOf("add", Star()))
	sizeSet := SymSetOf(SymOpOf("size"))
	tbl := NewModeTable(setSpec(), []SymSet{addSet, sizeSet}, TableOptions{Phi: NewPhi(2)})
	s := NewSemantic(tbl)
	add := tbl.Set(addSet).Mode()
	if !tbl.Commute(add, add) {
		t.Fatal("premise: {add(*)} must self-commute")
	}
	const holders = 8
	for i := 0; i < holders; i++ {
		done := make(chan struct{})
		go func() { s.Acquire(add); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("holder %d blocked on self-commuting mode", i)
		}
	}
	if got := s.Holders(add); got != holders {
		t.Fatalf("holders = %d, want %d", got, holders)
	}
	// size() conflicts with add(*) and must not sneak in.
	size := tbl.Set(sizeSet).Mode()
	if s.TryAcquire(size) {
		t.Fatal("size acquired while add holders present")
	}
	for i := 0; i < holders; i++ {
		s.Release(add)
	}
	if !s.TryAcquire(size) {
		t.Fatal("size blocked after all add holders released")
	}
	s.Release(size)
}

// TestBlockingAndWakeup: an acquirer of a conflicting mode blocks until
// release, then proceeds — no lost wakeups.
func TestBlockingAndWakeup(t *testing.T) {
	tbl := mapTable(t, 1, TableOptions{})
	s := NewSemantic(tbl)
	km, sm := keyMode(tbl, 7), sizeMode(tbl)
	s.Acquire(km)
	acquired := make(chan struct{})
	go func() {
		s.Acquire(sm)
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("conflicting acquire did not block")
	case <-time.After(50 * time.Millisecond):
	}
	s.Release(km)
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("blocked acquirer never woke up")
	}
	s.Release(sm)
}

// TestTryAcquire covers the non-blocking path.
func TestTryAcquire(t *testing.T) {
	tbl := mapTable(t, 1, TableOptions{})
	s := NewSemantic(tbl)
	km, sm := keyMode(tbl, 7), sizeMode(tbl)
	if !s.TryAcquire(km) {
		t.Fatal("TryAcquire on free lock failed")
	}
	if s.TryAcquire(sm) {
		t.Fatal("TryAcquire of conflicting mode succeeded")
	}
	s.Release(km)
	if !s.TryAcquire(sm) {
		t.Fatal("TryAcquire after release failed")
	}
	s.Release(sm)
}

// TestNoFastPathStillCorrect runs the exclusion test with the fast path
// disabled (ablation A4).
func TestNoFastPathStillCorrect(t *testing.T) {
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
		t.Errorf("%d violations with fast path disabled", violations.Load())
	}
}

// TestManyThreadsMixedModes is a stress test mixing commuting and
// conflicting modes across buckets; it checks per-bucket exclusion
// between put-holders and size-holders and cross-bucket parallelism is
// at least not deadlocking.
func TestManyThreadsMixedModes(t *testing.T) {
	tbl := mapTable(t, 4, TableOptions{})
	s := NewSemantic(tbl)
	sm := sizeMode(tbl)
	var wg sync.WaitGroup
	insideKey := make([]atomic.Int32, 4)
	var insideSize atomic.Int32
	var violations atomic.Int32
	phi := tbl.Phi()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if g == 0 && i%10 == 0 {
					s.Acquire(sm)
					insideSize.Add(1)
					for b := range insideKey {
						if insideKey[b].Load() != 0 {
							violations.Add(1)
						}
					}
					insideSize.Add(-1)
					s.Release(sm)
					continue
				}
				k := (g*31 + i) % 64
				b := phi.Abstract(k)
				m := keyMode(tbl, k)
				s.Acquire(m)
				insideKey[b].Add(1)
				if insideSize.Load() != 0 {
					violations.Add(1)
				}
				insideKey[b].Add(-1)
				s.Release(m)
			}
		}(g)
	}
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Errorf("%d size/put co-residence violations", v)
	}
}

func TestInstanceIDsUnique(t *testing.T) {
	tbl := mapTable(t, 2, TableOptions{})
	a, b := NewSemantic(tbl), NewSemantic(tbl)
	if a.ID() == b.ID() {
		t.Error("instance ids must be unique")
	}
	if a.Table() != tbl {
		t.Error("Table() must return the compile table")
	}
}

func TestHolders(t *testing.T) {
	tbl := mapTable(t, 1, TableOptions{})
	s := NewSemantic(tbl)
	km := keyMode(tbl, 1)
	if s.Holders(km) != 0 {
		t.Fatal("fresh lock has holders")
	}
	s.Acquire(km)
	if s.Holders(km) != 1 {
		t.Fatal("holder count wrong after acquire")
	}
	s.Release(km)
	if s.Holders(km) != 0 {
		t.Fatal("holder count wrong after release")
	}
}
