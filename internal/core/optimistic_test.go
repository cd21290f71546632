package core

import (
	"sync"
	"sync/atomic"
	"testing"
)

// optTestEnv compiles a two-set map table (per-key read set, per-key
// write set) and one instance, the fixture shared by the optimistic
// protocol tests.
type optTestEnv struct {
	tbl   *ModeTable
	sem   *Semantic
	read  SetRef
	write SetRef
}

func newOptTestEnv(t testing.TB) *optTestEnv {
	t.Helper()
	readSet := SymSetOf(SymOpOf("get", VarArg("k")))
	writeSet := SymSetOf(SymOpOf("put", VarArg("k"), Star()), SymOpOf("remove", VarArg("k")))
	tbl := NewModeTable(mapSpec(), []SymSet{readSet, writeSet}, TableOptions{Phi: NewPhi(8)})
	return &optTestEnv{
		tbl:   tbl,
		sem:   NewSemantic(tbl),
		read:  tbl.Set(readSet),
		write: tbl.Set(writeSet),
	}
}

// tryRead runs one optimistic section observing the read mode for key,
// returning whether it committed.
func (e *optTestEnv) tryRead(tx *Txn, key int) bool {
	m := e.read.Mode1(key)
	return tx.TryOptimistic(func(t *Txn) bool {
		return t.Observe(e.sem, m, 0)
	})
}

func TestOptimisticUncontendedCommits(t *testing.T) {
	e := newOptTestEnv(t)
	tx := NewTxn()
	if !e.tryRead(tx, 3) {
		t.Fatal("uncontended optimistic read failed to validate")
	}
	st := e.sem.Stats()
	if st.OptimisticHits != 1 || st.OptimisticRetries != 0 {
		t.Fatalf("stats after clean commit: hits=%d retries=%d, want 1/0", st.OptimisticHits, st.OptimisticRetries)
	}
}

func TestOptimisticObserveSeesHolder(t *testing.T) {
	e := newOptTestEnv(t)
	w := e.write.Mode1(3)
	e.sem.Acquire(w)
	tx := NewTxn()
	if e.tryRead(tx, 3) {
		t.Fatal("optimistic read validated while a conflicting writer held its mode")
	}
	e.sem.Release(w)
	st := e.sem.Stats()
	if st.OptimisticRefusals != 1 {
		t.Fatalf("refusals=%d after observe-time conflict, want 1", st.OptimisticRefusals)
	}
	if st.OptimisticRetries != 0 {
		t.Fatalf("retries=%d after observe-time conflict, want 0 — no body ran, nothing was re-executed", st.OptimisticRetries)
	}
	if !e.tryRead(tx, 3) {
		t.Fatal("optimistic read failed after the writer released")
	}
}

func TestOptimisticValidationCatchesWriterInWindow(t *testing.T) {
	e := newOptTestEnv(t)
	rm := e.read.Mode1(3)
	w := e.write.Mode1(3)
	tx := NewTxn()
	ok := tx.TryOptimistic(func(tt *Txn) bool {
		if !tt.Observe(e.sem, rm, 0) {
			return false
		}
		// A conflicting writer acquires AND releases entirely inside the
		// read window: only the version counter can catch it.
		e.sem.Acquire(w)
		e.sem.Release(w)
		return true
	})
	if ok {
		t.Fatal("validation passed despite a conflicting release inside the window")
	}
}

func TestVersionBumpsOnConflictingAcquireOnly(t *testing.T) {
	e := newOptTestEnv(t)
	w := e.write.Mode1(5)
	v0 := e.sem.Version(w)
	e.sem.Acquire(w)
	if got := e.sem.Version(w); got != v0+1 {
		t.Fatalf("acquire bumped version %d -> %d, want +1", v0, got)
	}
	e.sem.Release(w)
	if got := e.sem.Version(w); got != v0+1 {
		t.Fatalf("release bumped version: %d -> %d", v0+1, got)
	}
	// A failed tryAcquire retreats a transient claim; an acquisition
	// that never stood must not look like one to validators.
	e.sem.Acquire(w)
	v1 := e.sem.Version(w)
	if e.sem.TryAcquire(e.write.Mode1(5)) {
		t.Fatal("conflicting TryAcquire unexpectedly succeeded")
	}
	if got := e.sem.Version(w); got != v1 {
		t.Fatalf("failed tryAcquire bumped version %d -> %d", v1, got)
	}
	e.sem.Release(w)
}

// TestOptimisticRefusalsAreNotRetries: observe-time refusals —
// attempts turned away by a visible conflicting holder before any body
// ran — are counted as refusals, never as retries, however many there
// are, and the first read after the holder releases commits.
func TestOptimisticRefusalsAreNotRetries(t *testing.T) {
	e := newOptTestEnv(t)
	w := e.write.Mode1(3)
	tx := NewTxn()

	e.sem.Acquire(w)
	for i := 0; i < 4096; i++ {
		if e.tryRead(tx, 3) {
			t.Fatal("read validated under a held conflicting mode")
		}
	}
	e.sem.Release(w)

	st := e.sem.Stats()
	if got, want := st.OptimisticRefusals, uint64(4096); got != want {
		t.Fatalf("refusals=%d, want %d", got, want)
	}
	if st.OptimisticRetries != 0 {
		t.Fatalf("retries=%d, want 0 — no body ever ran", st.OptimisticRetries)
	}
	if !e.tryRead(tx, 3) {
		t.Fatal("optimistic read failed after the holder released")
	}
}

// TestOptimisticSnapshotClearedOnReset is the pooled-transaction
// staleness audit mirroring TestMemoSurvivesResetAcrossTables: unlike
// the memo, the optimistic snapshot buffer must NOT survive Reset — a
// pooled Txn reused by another section would otherwise validate against
// a stale version vector (and a body that panicked mid-TryOptimistic
// would leave the transaction stuck in optimistic state).
func TestOptimisticSnapshotClearedOnReset(t *testing.T) {
	e := newOptTestEnv(t)
	rm := e.read.Mode1(3)
	w := e.write.Mode1(3)

	tx := NewTxn()
	if !e.tryRead(tx, 3) {
		t.Fatal("warm-up read failed")
	}
	// Invalidate instance A's snapshot, then Reset (the pool does this
	// between sections) and run a section that observes a different
	// instance. A stale surviving snapshot of A would fail validation.
	e.sem.Acquire(w)
	e.sem.Release(w)
	tx.Reset()
	if tx.optActive || tx.snap.n != 0 {
		t.Fatalf("Reset left optimistic state: active=%v snaps=%d", tx.optActive, tx.snap.n)
	}
	other := newOptTestEnv(t)
	if !other.tryRead(tx, 3) {
		t.Fatal("pooled reuse validated against a stale version vector")
	}

	// Panic path: a body that dies inside TryOptimistic unwinds through
	// Atomically; Reset must clear optActive so the next use works.
	func() {
		defer func() { _ = recover() }()
		tx.Atomically(func(tt *Txn) {
			tt.TryOptimistic(func(tt *Txn) bool {
				tt.Observe(e.sem, rm, 0)
				panic("boom")
			})
		})
	}()
	tx.Reset()
	if tx.optActive || tx.snap.n != 0 {
		t.Fatalf("Reset after mid-body panic left optimistic state: active=%v snaps=%d", tx.optActive, tx.snap.n)
	}
	if !e.tryRead(tx, 3) {
		t.Fatal("transaction unusable after mid-body panic and Reset")
	}

	// Shrink: a section that observed a pathological number of instances
	// must not pin its peak buffer through the pool.
	sems := make([]*Semantic, snapInline+resetShrinkCap+8)
	for i := range sems {
		sems[i] = NewSemantic(e.tbl)
	}
	tx.TryOptimistic(func(tt *Txn) bool {
		for _, s := range sems {
			if !tt.Observe(s, rm, 0) {
				return false
			}
		}
		return false // discard; only the buffer growth matters
	})
	tx.Reset()
	if kept := cap(tx.snap.more); kept > resetShrinkCap {
		t.Fatalf("Reset kept an oversized snapshot overflow (%d entries > %d)", kept, resetShrinkCap)
	}
}

// TestOptimisticAllocFree pins the optimistic hot path and the stats
// read path at zero allocations, like the fused-prologue and memo alloc
// tests.
func TestOptimisticAllocFree(t *testing.T) {
	e := newOptTestEnv(t)
	m := e.read.Mode1(3)
	tx := NewTxn()
	body := func(tt *Txn) bool { return tt.Observe(e.sem, m, 0) }
	attempt := func() {
		if !tx.TryOptimistic(body) {
			t.Fatal("uncontended attempt failed")
		}
	}
	attempt() // warm the snapshot buffer
	if n := testing.AllocsPerRun(100, attempt); n != 0 {
		t.Fatalf("TryOptimistic allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = e.sem.Stats() }); n != 0 {
		t.Fatalf("Stats allocates %v per op, want 0", n)
	}
}

// optimisticShapes are the two entries to the one observe/validate
// protocol: the Txn envelope and the bare Snapshot. Each runs one read
// section observing mode m on s around read, and reports whether it
// committed.
var optimisticShapes = []struct {
	name string
	read func(tx *Txn, s *Semantic, m ModeID, read func()) bool
}{
	{"envelope", func(tx *Txn, s *Semantic, m ModeID, read func()) bool {
		return tx.TryOptimistic(func(tt *Txn) bool {
			if !tt.Observe(s, m, 0) {
				return false
			}
			read()
			return true
		})
	}},
	{"snapshot", func(_ *Txn, s *Semantic, m ModeID, read func()) bool {
		var sn Snapshot
		if !sn.Observe(s, m) {
			return false
		}
		read()
		return sn.Validate()
	}},
}

// TestOptimisticTornWindow races optimistic readers against pessimistic
// writers maintaining the invariant x == y under the write mode. A
// validated optimistic read must never observe the writers' torn
// mid-section state — that is exactly the protocol's guarantee, through
// either entry shape.
func TestOptimisticTornWindow(t *testing.T) {
	for _, shape := range optimisticShapes {
		t.Run(shape.name, func(t *testing.T) {
			e := newOptTestEnv(t)
			rm := e.read.Mode1(3)
			wm := e.write.Mode1(3)
			var x, y atomic.Int64
			const iters = 20000

			var wg sync.WaitGroup
			var torn atomic.Int64
			var commits atomic.Int64
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					tx := NewTxn()
					for i := 0; i < iters; i++ {
						tx.Lock(e.sem, wm, 0)
						x.Add(1)
						y.Add(1)
						tx.UnlockAll()
						tx.Reset()
					}
				}()
			}
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					tx := NewTxn()
					for i := 0; i < iters; i++ {
						var a, b int64
						if shape.read(tx, e.sem, rm, func() { a, b = x.Load(), y.Load() }) {
							commits.Add(1)
							if a != b {
								torn.Add(1)
							}
						}
					}
				}()
			}
			wg.Wait()
			if n := torn.Load(); n != 0 {
				t.Fatalf("%d validated optimistic reads observed torn writer state", n)
			}
			t.Logf("optimistic commits: %d / %d", commits.Load(), int64(4*iters))
		})
	}
}

// TestObserverModesDoNotBump: acquiring a mode made only of declared
// observers changes nothing a lock-free read saw, so it leaves the
// mechanism's version alone — no shared RMW for a pessimistic get(k),
// and no optimistic reader failed by one — while any mode holding a
// mutator, alone or in a batch, still advances it once.
func TestObserverModesDoNotBump(t *testing.T) {
	readSet := SymSetOf(SymOpOf("get", VarArg("k")))
	writeSet := SymSetOf(SymOpOf("put", VarArg("k"), Star()), SymOpOf("remove", VarArg("k")))
	mixedSet := SymSetOf(SymOpOf("get", VarArg("k")), SymOpOf("put", VarArg("k"), Star()))
	tbl := NewModeTable(mapSpec().Observer("get", "size"),
		[]SymSet{readSet, writeSet, mixedSet}, TableOptions{Phi: NewPhi(8)})
	sem := NewSemantic(tbl)
	r, r2 := tbl.Set(readSet).Mode1(3), tbl.Set(readSet).Mode1(4)
	w, mixed := tbl.Set(writeSet).Mode1(3), tbl.Set(mixedSet).Mode1(3)
	if tbl.Commute(r, w) {
		t.Fatal("test premise: get(k) and put(k,*) must conflict")
	}

	lockUnlock := func(ms ...ModeID) {
		tx := NewTxn()
		locks := make([]BatchLock, len(ms))
		for i, m := range ms {
			locks[i] = BatchLock{Sem: sem, Mode: m}
		}
		tx.LockBatch(locks...)
		tx.UnlockAll()
	}
	for _, step := range []struct {
		name  string
		modes []ModeID
		bump  uint64
	}{
		{"get(k)", []ModeID{r}, 0},
		{"batch of get(k), get(k')", []ModeID{r, r2}, 0},
		{"put(k,*)", []ModeID{w}, 1},
		{"{get(k),put(k,*)}", []ModeID{mixed}, 1},
		{"batch of get(k'), put(k,*)", []ModeID{r2, w}, 1},
	} {
		before := sem.Version(r)
		lockUnlock(step.modes...)
		if got := sem.Version(r) - before; got != step.bump {
			t.Errorf("lock/unlock of %s advanced the version by %d, want %d", step.name, got, step.bump)
		}
	}

	inWindow := func(m ModeID) bool {
		return NewTxn().TryOptimistic(func(tt *Txn) bool {
			if !tt.Observe(sem, r, 0) {
				return false
			}
			lockUnlock(m) // another transaction, entirely inside the read window
			return true
		})
	}
	if !inWindow(r) {
		t.Error("a pessimistic get(k) inside the window failed the optimistic reader's validation")
	}
	if inWindow(w) {
		t.Error("validation passed despite a put(k,*) inside the window")
	}
}
