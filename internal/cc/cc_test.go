package cc

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGlobalLockExcludes(t *testing.T) {
	var g GlobalLock
	var inside, violations atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Enter()
				if inside.Add(1) != 1 {
					violations.Add(1)
				}
				inside.Add(-1)
				g.Exit()
			}
		}()
	}
	wg.Wait()
	if violations.Load() != 0 {
		t.Errorf("%d violations", violations.Load())
	}
}

func TestTwoPLOrderedNoDeadlock(t *testing.T) {
	a, b := NewInstanceLock(0), NewInstanceLock(0)
	done := make(chan struct{}, 2)
	run := func(x, y *InstanceLock) {
		for i := 0; i < 2000; i++ {
			var tx TwoPL
			tx.LockOrdered(x, y)
			tx.UnlockAll()
		}
		done <- struct{}{}
	}
	go run(a, b)
	go run(b, a)
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("deadlock in ordered 2PL")
		}
	}
}

func TestTwoPLIdempotentLock(t *testing.T) {
	l := NewInstanceLock(0)
	var tx TwoPL
	tx.Lock(l)
	tx.Lock(l) // absorbed
	tx.Lock(nil)
	tx.UnlockAll()
	// Re-lockable afterwards (UnlockAll fully released).
	tx.Lock(l)
	tx.UnlockAll()
}

func TestTwoPLLockOrderedDedup(t *testing.T) {
	a, b := NewInstanceLock(0), NewInstanceLock(0)
	var tx TwoPL
	tx.LockOrdered(b, nil, a, b, a)
	if len(tx.held) != 2 {
		t.Errorf("held %d locks, want 2", len(tx.held))
	}
	tx.UnlockAll()
}

func TestStripedDistinctParallel(t *testing.T) {
	s := NewStriped(8)
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	// Find two keys in distinct stripes.
	k1, k2 := 0, -1
	for k := 1; k < 100; k++ {
		if s.indexOf(k) != s.indexOf(k1) {
			k2 = k
			break
		}
	}
	if k2 == -1 {
		t.Fatal("no distinct stripes found")
	}
	s.Lock(k1)
	acquired := make(chan struct{})
	go func() {
		s.Lock(k2)
		s.Unlock(k2)
		close(acquired)
	}()
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("distinct stripes must not block each other")
	}
	s.Unlock(k1)
}

func TestStripedReadersShare(t *testing.T) {
	s := NewStriped(4)
	s.RLock(1)
	s.RLock(1) // second reader must not block
	s.RUnlock(1)
	s.RUnlock(1)
}

func TestStripedLockAll(t *testing.T) {
	s := NewStriped(16)
	s.LockAll()
	// Every stripe is exclusively held.
	probe := make(chan struct{})
	go func() {
		s.Lock(3)
		s.Unlock(3)
		close(probe)
	}()
	select {
	case <-probe:
		t.Fatal("stripe acquired while LockAll held")
	case <-time.After(50 * time.Millisecond):
	}
	s.UnlockAll()
	select {
	case <-probe:
	case <-time.After(5 * time.Second):
		t.Fatal("stripe never released")
	}
}
