package core

import (
	"sync"
	"testing"
)

// TestOptGateBoundary pins the disable threshold of the adaptive gate:
// exactly optWindow·optDisableNum/optDisableDen failures (768 of 1024)
// close the optimistic path; one fewer does not. The comment in
// lockmech.go promises "close at >= num/den failures" — this is the
// test that keeps the comparison honest at the boundary. A closed gate
// admits exactly one probe per optProbeInterval attempts, which re-opens
// it from its enabled state.
func TestOptGateBoundary(t *testing.T) {
	tbl := mapTable(t, 8, TableOptions{})
	feed := func(s *Semantic, fails, total int) {
		for i := 0; i < total; i++ {
			s.recordValidation(i >= fails)
		}
	}
	const closeAt = optWindow * optDisableNum / optDisableDen

	s := NewSemantic(tbl)
	feed(s, closeAt-1, optWindow) // one below threshold
	if !s.OptimisticEnabled() {
		t.Fatalf("gate closed at %d/%d failures, threshold is %d", closeAt-1, optWindow, closeAt)
	}

	s = NewSemantic(tbl)
	feed(s, closeAt, optWindow) // exactly the threshold
	if s.OptimisticEnabled() {
		t.Fatalf("gate open at %d/%d failures, threshold is %d", closeAt, optWindow, closeAt)
	}
	admitted := 0
	for i := 0; i < optProbeInterval; i++ {
		if s.optimisticAllowed() {
			admitted++
		}
	}
	if admitted != 1 {
		t.Fatalf("closed gate admitted %d of %d attempts, want exactly the probe", admitted, optProbeInterval)
	}
	if !s.OptimisticEnabled() {
		t.Fatal("gate still closed after the probe was admitted")
	}
}

// TestGateRidesOutFailureBurst: a correlated burst of failures — a
// writer preempted inside the read window of every reader queued behind
// it — is not a write-heavy instance. One burst of 2·64 failures inside
// a window of hits must leave the gate open, while a sustained failure
// rate at the threshold still closes the gate, which then probes open
// after optProbeInterval attempts.
func TestGateRidesOutFailureBurst(t *testing.T) {
	e := newOptTestEnv(t)
	// Sizes are literal, not derived from optWindow, so the burst lands
	// the same way whatever the gate's window is; span is a whole number
	// of windows, so the sustained phase below starts on a boundary.
	const burst, span = 2 * 64, 2048
	if span%optWindow != 0 {
		t.Fatalf("test premise: span %d is not a multiple of the window %d", span, optWindow)
	}
	for i := 0; i < span; i++ {
		var body func()
		if i >= 300 && i < 300+burst {
			body = e.writeInWindow(3)
		}
		if got := e.bareRead(3, body); got != (body == nil) {
			t.Fatalf("attempt %d committed=%v", i, got)
		}
		if !e.sem.OptimisticEnabled() {
			t.Fatalf("gate closed at attempt %d by one burst of %d failures", i, burst)
		}
	}

	// Sustained: three failures in every four attempts — the threshold
	// share — over a whole window closes the gate at the window's end.
	for i := 0; i < optWindow; i++ {
		var body func()
		if i%optDisableDen < optDisableNum {
			body = e.writeInWindow(3)
		}
		if got := e.bareRead(3, body); got != (body == nil) {
			t.Fatalf("sustained attempt %d committed=%v", i, got)
		}
	}
	if e.sem.OptimisticEnabled() {
		t.Fatal("gate open after a window at a sustained 3/4 failure rate")
	}
	refused := 0
	for !e.bareRead(3, nil) {
		if refused++; refused > optProbeInterval {
			t.Fatal("gate never probed back open after contention cleared")
		}
	}
	if refused != optProbeInterval-1 {
		t.Errorf("probe admitted after %d refused attempts, want %d", refused, optProbeInterval-1)
	}
	if !e.sem.OptimisticEnabled() {
		t.Fatal("gate not re-enabled after a successful probe")
	}
}

// TestOptGateSingleCloser: hammer the window boundaries from many
// goroutines. Each window must be consumed exactly once — racing
// closers that evaluated one window twice, or a boundary nobody saw,
// would show here as a gate closed by all-success windows or as lost
// hit counts.
func TestOptGateSingleCloser(t *testing.T) {
	tbl := mapTable(t, 8, TableOptions{})
	s := NewSemantic(tbl)
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
