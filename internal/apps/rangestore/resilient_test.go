package rangestore

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/resilience"
)

func testPolicy() *resilience.Policy {
	return resilience.New("rs", resilience.Config{
		Patience: 2 * time.Millisecond,
		Retries:  20,
		Backoff:  resilience.Backoff{Base: 20 * time.Microsecond, Max: 500 * time.Microsecond},
		Budget:   &resilience.BudgetConfig{Capacity: 10000, RefillPerSec: 1e6},
	})
}

func TestResilientPointOps(t *testing.T) {
	r := NewResilient(New(4, 64), testPolicy())
	if err := r.PutErr(3, "x"); err != nil {
		t.Fatalf("PutErr: %v", err)
	}
	if v := r.Get(3); v != "x" {
		t.Fatalf("Get(3) = %v, want x", v)
	}
	if err := r.PutPairErr(5); err != nil {
		t.Fatalf("PutPairErr: %v", err)
	}
	if n := r.Scan(); n != 3 {
		t.Fatalf("Scan = %d, want 3", n)
	}
}

// TestResilientScanOracle hammers scans and point reads against
// policy-guarded pair toggles. PutPairErr keeps the entry count even in
// every serial state (mutations run only after both shard locks are
// held, and a stalled attempt toggles nothing), so ANY scan returning
// an odd count — validated optimistic or pessimistic fallback — is a
// torn read, or a stalled toggle that left half its pair behind. Run
// under -race.
func TestResilientScanOracle(t *testing.T) {
	s := New(8, 256)
	r := NewResilient(s, testPolicy())
	const writers, scanners = 2, 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var scans, toggles atomic.Int64

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			k := w
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := r.PutPairErr(k % s.Capacity()); err == nil {
					toggles.Add(1)
				} else if !resilience.Retryable(err) && !errors.Is(err, resilience.ErrBudgetExhausted) {
					t.Errorf("PutPairErr: %v", err)
					return
				}
				k += 7
			}
		}(w)
	}
	for g := 0; g < scanners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k := g
			for {
				select {
				case <-stop:
					return
				default:
				}
				if n := r.Scan(); n%2 != 0 {
					t.Errorf("torn scan: count %d is odd", n)
					return
				}
				scans.Add(1)
				r.Get(k % s.Capacity())
				k += 3
			}
		}(g)
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	if scans.Load() == 0 || toggles.Load() == 0 {
		t.Fatalf("hammer did no work: scans=%d toggles=%d", scans.Load(), toggles.Load())
	}
	t.Logf("scans=%d toggles=%d", scans.Load(), toggles.Load())
	for _, sem := range s.Sems() {
		if err := sem.CheckQuiesced(); err != nil {
			t.Fatal(err)
		}
	}
	if n := core.WaitersOutstanding(); n != 0 {
		t.Fatalf("leaked %d waiter(s)", n)
	}
}
