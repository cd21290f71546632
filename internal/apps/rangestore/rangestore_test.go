package rangestore

import (
	"sync"
	"testing"

	"repro/internal/core"
)

func TestPointOps(t *testing.T) {
	s := New(4, 64)
	s.Put(3, "x")
	if got := s.Get(3); got != "x" {
		t.Errorf("Get(3) = %v, want x", got)
	}
	if got := s.GetPessimistic(3); got != "x" {
		t.Errorf("GetPessimistic(3) = %v, want x", got)
	}
	if got := s.Get(4); got != nil {
		t.Errorf("Get(4) = %v, want nil", got)
	}
	if st := s.shardOf(3).sem.Stats(); st.OptimisticHits == 0 {
		t.Errorf("uncontended Get never committed optimistically: %+v", st)
	}
}

func TestPairToggle(t *testing.T) {
	s := New(4, 64)
	s.PutPair(5)
	if n := s.Scan(); n != 2 {
		t.Errorf("Scan after one PutPair = %d, want 2", n)
	}
	if s.Get(5) == nil || s.Get(s.Partner(5)) == nil {
		t.Error("pair halves missing after insert toggle")
	}
	s.PutPair(5)
	if n := s.ScanPessimistic(); n != 0 {
		t.Errorf("Scan after toggle-off = %d, want 0", n)
	}
}

// TestScanOracle hammers optimistic scans against concurrent pair
// toggles: PutPair keeps the count even in every serial state, so a
// validated scan returning an odd count means version validation let a
// torn pair write through.
func TestScanOracle(t *testing.T) {
	s := New(8, 256)
	const writers, scanners, iters = 2, 4, 500
	var wg sync.WaitGroup
	torn := make(chan int, scanners)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				s.PutPair((w*31 + i*7) % (s.Capacity() / 2))
			}
		}(w)
	}
	for r := 0; r < scanners; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if n := s.Scan(); n%2 != 0 {
					torn <- n
					return
				}
			}
		}()
	}
	wg.Wait()
	close(torn)
	for n := range torn {
		t.Fatalf("validated scan returned odd count %d: torn pair write escaped validation", n)
	}
	var hits, retries uint64
	for _, sem := range s.Sems() {
		st := sem.Stats()
		hits += st.OptimisticHits
		retries += st.OptimisticRetries
	}
	if hits+retries == 0 {
		t.Error("no optimistic attempts recorded during the hammer")
	}
}

// TestPointOpAllocs: a point operation boxes its int key once, for the
// selector and the map alike. A read keeps that box on its own stack —
// nothing it calls retains the key — so only Put, whose key the map
// stores, allocates. (Keys below 256 box for free; the probe key is
// above that.)
func TestPointOpAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation heap-allocates stack closures; the pins hold on the normal build")
	}
	s := New(8, 4096)
	var stored core.Value = 1
	s.Put(3000, stored)
	if n := testing.AllocsPerRun(2000, func() { s.Get(3000) }); n > 0 {
		t.Errorf("Get allocs/op = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(2000, func() { s.GetPessimistic(3000) }); n > 0 {
		t.Errorf("GetPessimistic allocs/op = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(2000, func() { s.Scan() }); n > 0 {
		t.Errorf("Scan allocs/op = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(2000, func() { s.Put(3000, stored) }); n > 1 {
		t.Errorf("Put allocs/op = %v, want <= 1", n)
	}
}
