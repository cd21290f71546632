package core

import (
	"testing"
	"time"
)

// TestStatsFastPath: uncontended acquisitions take the fast path.
func TestStatsFastPath(t *testing.T) {
	tbl := mapTable(t, 4, TableOptions{})
	s := NewSemantic(tbl)
	for i := 0; i < 100; i++ {
		m := keyMode(tbl, i)
		s.Acquire(m)
		s.Release(m)
	}
	st := s.Stats()
	if st.FastPath != 100 || st.Slow != 0 || st.Waits != 0 {
		t.Errorf("stats = %+v, want 100 fast-path acquisitions", st)
	}
}

// TestStatsBlocked: a conflicting acquisition registers a slow-path
// wait.
func TestStatsBlocked(t *testing.T) {
	tbl := mapTable(t, 1, TableOptions{})
	s := NewSemantic(tbl)
	km, sm := keyMode(tbl, 1), sizeMode(tbl)
	s.Acquire(km)
	acquired := make(chan struct{})
	go func() {
		s.Acquire(sm)
		close(acquired)
	}()
	time.Sleep(30 * time.Millisecond)
	s.Release(km)
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("blocked acquire never completed")
	}
	st := s.Stats()
	if st.Slow == 0 || st.Waits == 0 {
		t.Errorf("stats = %+v, want slow-path waits recorded", st)
	}
	s.Release(sm)
}

// TestStatsNoFastPath: with the fast path disabled (A4) every
// acquisition is slow-path.
func TestStatsNoFastPath(t *testing.T) {
	tbl := mapTable(t, 4, TableOptions{})
	s := NewSemantic(tbl)
	s.disableFastPath = true
	for i := 0; i < 50; i++ {
		m := keyMode(tbl, i)
		s.Acquire(m)
		s.Release(m)
	}
	st := s.Stats()
	if st.FastPath != 0 || st.Slow != 50 {
		t.Errorf("stats = %+v, want 50 slow-path acquisitions", st)
	}
}
