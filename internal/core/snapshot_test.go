package core

import (
	"runtime"
	"sync"
	"testing"
)

// The protocol tests of optimistic_test.go, on the bare entry: a
// Snapshot on the test's stack and no transaction anywhere.

// bareRead runs one transaction-free optimistic read of key around
// body, returning whether it committed.
func (e *optTestEnv) bareRead(key int, body func()) bool {
	var sn Snapshot
	if !sn.Observe(e.sem, e.read.Mode1(key)) {
		return false
	}
	if body != nil {
		body()
	}
	return sn.Validate()
}

// writeInWindow is a conflicting writer that acquires and releases
// entirely inside a read window: only the version counter can catch it.
func (e *optTestEnv) writeInWindow(key int) func() {
	w := e.write.Mode1(key)
	return func() {
		e.sem.Acquire(w)
		e.sem.Release(w)
	}
}

func TestSnapshotUncontendedCommits(t *testing.T) {
	e := newOptTestEnv(t)
	if !e.bareRead(3, nil) {
		t.Fatal("uncontended bare read failed to validate")
	}
	st := e.sem.Stats()
	if st.OptimisticHits != 1 || st.OptimisticRetries != 0 || st.OptimisticRefusals != 0 {
		t.Fatalf("stats after clean commit: hits=%d retries=%d refusals=%d, want 1/0/0",
			st.OptimisticHits, st.OptimisticRetries, st.OptimisticRefusals)
	}
}

// A visible conflicting holder is a refusal: counted, nothing recorded
// in the vector, and never a retry however many there are.
func TestSnapshotRefusal(t *testing.T) {
	e := newOptTestEnv(t)
	w := e.write.Mode1(3)
	e.sem.Acquire(w)
	for i := 0; i < 4096; i++ {
		var sn Snapshot
		if sn.Observe(e.sem, e.read.Mode1(3)) {
			t.Fatal("Observe admitted a read under a held conflicting mode")
		}
		if sn.n != 0 {
			t.Fatalf("a refused observation was recorded (n=%d)", sn.n)
		}
	}
	e.sem.Release(w)
	st := e.sem.Stats()
	if got, want := st.OptimisticRefusals, uint64(4096); got != want {
		t.Fatalf("refusals=%d, want %d", got, want)
	}
	if st.OptimisticHits != 0 || st.OptimisticRetries != 0 {
		t.Fatalf("hits=%d retries=%d after refusals only, want 0/0 — no body ran", st.OptimisticHits, st.OptimisticRetries)
	}
	if !e.bareRead(3, nil) {
		t.Fatal("bare read failed after the holder released")
	}
}

func TestSnapshotValidationCatchesWriterInWindow(t *testing.T) {
	e := newOptTestEnv(t)
	if e.bareRead(3, e.writeInWindow(3)) {
		t.Fatal("validation passed despite a conflicting acquire inside the window")
	}
	st := e.sem.Stats()
	if st.OptimisticRetries != 1 || st.OptimisticHits != 0 {
		t.Fatalf("hits=%d retries=%d after one failed validation, want 0/1", st.OptimisticHits, st.OptimisticRetries)
	}
}

// A run of failed validations on one instance leaves the next
// uncontended read as free as the first: it commits optimistically and
// counts a hit. Nothing turns reads away after failures.
func TestSnapshotCommitsAfterFailureRun(t *testing.T) {
	e := newOptTestEnv(t)
	const fails = 2048
	write, bodies := e.writeInWindow(3), 0
	for i := 0; i < fails; i++ {
		if e.bareRead(3, func() { bodies++; write() }) {
			t.Fatalf("attempt %d validated despite a writer inside its window", i)
		}
	}
	if bodies != fails {
		t.Fatalf("%d of %d attempts ran their body; the rest were turned away", bodies, fails)
	}
	if !e.bareRead(3, nil) {
		t.Fatalf("uncontended read after %d failed validations did not commit", fails)
	}
	st := e.sem.Stats()
	if st.OptimisticHits != 1 || st.OptimisticRetries != fails || st.OptimisticRefusals != 0 {
		t.Fatalf("hits=%d retries=%d refusals=%d, want 1/%d/0",
			st.OptimisticHits, st.OptimisticRetries, st.OptimisticRefusals, fails)
	}
}

// TestSnapshotAccountingHammer: readers race one writer on a single key,
// and every read lands in exactly one counter — a hit, a retry or a
// refusal — so the three sum to the reads attempted.
func TestSnapshotAccountingHammer(t *testing.T) {
	e := newOptTestEnv(t)
	const readers, reads = 4, 3000
	w := e.write.Mode1(3)
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Every other hold spans a yield, so readers meet both a
			// visible holder (refusal) and a writer inside their window
			// (retry).
			e.sem.Acquire(w)
			if i%2 == 0 {
				runtime.Gosched()
			}
			e.sem.Release(w)
			runtime.Gosched()
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				e.bareRead(3, runtime.Gosched)
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-writerDone
	st := e.sem.Stats()
	t.Logf("hits %d, retries %d, refusals %d", st.OptimisticHits, st.OptimisticRetries, st.OptimisticRefusals)
	if got := st.OptimisticHits + st.OptimisticRetries + st.OptimisticRefusals; got != readers*reads {
		t.Fatalf("hits %d + retries %d + refusals %d = %d, want %d reads",
			st.OptimisticHits, st.OptimisticRetries, st.OptimisticRefusals, got, readers*reads)
	}
}

func TestSnapshotDuplicateObservedOnce(t *testing.T) {
	e := newOptTestEnv(t)
	var sn Snapshot
	for i := 0; i < 3; i++ {
		if !sn.Observe(e.sem, e.read.Mode1(3)) {
			t.Fatal("re-observation refused")
		}
	}
	if sn.n != 1 {
		t.Fatalf("one instance observed three times holds %d entries, want 1", sn.n)
	}
	if !sn.Validate() {
		t.Fatal("validation failed")
	}
	if hits := e.sem.Stats().OptimisticHits; hits != 1 {
		t.Fatalf("hits=%d, want 1: an instance is validated once", hits)
	}
}

// Past snapInline distinct instances the vector spills to the heap and
// behaves the same: every instance validated once, a miss on a spilled
// instance caught, and the vector reusable afterwards.
func TestSnapshotOverflow(t *testing.T) {
	e := newOptTestEnv(t)
	for _, n := range []int{snapInline + 1, 2*snapInline + 3} {
		sems := make([]*Semantic, n)
		for i := range sems {
			sems[i] = NewSemantic(e.tbl)
		}
		rm, wm := e.read.Mode1(3), e.write.Mode1(3)
		var sn Snapshot
		observeAll := func() {
			t.Helper()
			for _, s := range sems {
				if !sn.Observe(s, rm) || !sn.Observe(s, rm) {
					t.Fatal("Observe refused an idle instance")
				}
			}
			if sn.n != n {
				t.Fatalf("%d distinct instances hold %d entries", n, sn.n)
			}
		}

		observeAll()
		if !sn.Validate() {
			t.Fatalf("clean validation of %d instances failed", n)
		}
		for i, s := range sems {
			if hits := s.Stats().OptimisticHits; hits != 1 {
				t.Fatalf("instance %d of %d: hits=%d, want 1", i, n, hits)
			}
		}

		// A writer on the last — spilled — instance inside the window.
		observeAll()
		last := sems[n-1]
		last.Acquire(wm)
		last.Release(wm)
		if sn.Validate() {
			t.Fatalf("validation of %d instances missed a writer on the spilled one", n)
		}
		if st := last.Stats(); st.OptimisticRetries != 1 {
			t.Fatalf("retries on the invalidated instance = %d, want 1", st.OptimisticRetries)
		}
		if hits := sems[0].Stats().OptimisticHits; hits != 1 {
			t.Fatalf("a failed validation recorded a hit on instance 0 (hits=%d)", hits)
		}
		if sn.n != 0 {
			t.Fatalf("Validate left %d entries behind", sn.n)
		}
	}
}

func TestSnapshotNilInstance(t *testing.T) {
	var sn Snapshot
	if !sn.Observe(nil, 0) {
		t.Fatal("Observe(nil) must be a no-op that admits")
	}
	if sn.n != 0 {
		t.Fatalf("Observe(nil) recorded %d entries", sn.n)
	}
	if !sn.Validate() {
		t.Fatal("an empty snapshot must validate")
	}
}

// TestSnapshotAllocFree: up to snapInline instances, a read on a fresh
// Snapshot allocates nothing — the vector is on this frame.
func TestSnapshotAllocFree(t *testing.T) {
	e := newOptTestEnv(t)
	sems := make([]*Semantic, snapInline)
	for i := range sems {
		sems[i] = NewSemantic(e.tbl)
	}
	m := e.read.Mode1(3)
	for _, n := range []int{1, snapInline} {
		read := func() {
			var sn Snapshot
			for _, s := range sems[:n] {
				if !sn.Observe(s, m) {
					t.Fatal("uncontended Observe refused")
				}
			}
			if !sn.Validate() {
				t.Fatal("uncontended Validate failed")
			}
		}
		if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
			t.Fatalf("a bare read of %d instances allocates %v per op, want 0", n, allocs)
		}
	}
}
