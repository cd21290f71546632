package resilience_test

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/resilience"
)

// TestBudgetTokenBucket: withdrawals drain the bucket, refill restores
// it at the configured rate.
func TestBudgetTokenBucket(t *testing.T) {
	b := resilience.NewBudget(resilience.BudgetConfig{Capacity: 2, RefillPerSec: 50})
	if !b.TryWithdraw() || !b.TryWithdraw() {
		t.Fatal("full bucket refused a withdrawal")
	}
	if b.TryWithdraw() {
		t.Fatal("empty bucket granted a withdrawal")
	}
	granted, denied := b.Counts()
	if granted != 2 || denied != 1 {
		t.Fatalf("counts = (%d,%d), want (2,1)", granted, denied)
	}
	// 50 tokens/s → one token well within a second.
	deadline := time.Now().Add(5 * time.Second)
	for !b.TryWithdraw() {
		if time.Now().After(deadline) {
			t.Fatal("bucket never refilled")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPolicyBudgetExhaustionTyped: a section that stalls on every
// attempt must come back as ErrBudgetExhausted once the bucket is empty
// — with the underlying *StallError still recoverable — and leak no
// goroutines. Run under -race.
func TestPolicyBudgetExhaustionTyped(t *testing.T) {
	tbl, keys := keyedTable(t)
	s := core.NewSemantic(tbl)
	km := keys.Mode(1)
	s.Acquire(km) // permanent conflicting holder

	before := runtime.NumGoroutine()
	p := resilience.New("t", resilience.Config{
		Patience: 2 * time.Millisecond,
		Retries:  10,
		Backoff:  resilience.Backoff{Base: 50 * time.Microsecond, Max: 200 * time.Microsecond},
		Budget:   &resilience.BudgetConfig{Capacity: 2, RefillPerSec: 0.001},
	})

	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = p.Run(func(tx *core.Txn) error {
				return p.Acquire(tx, s, km, 0)
			})
		}(g)
	}
	wg.Wait()

	sawExhausted := false
	for _, err := range errs {
		if err == nil {
			t.Fatal("acquisition against a live holder succeeded")
		}
		var stall *core.StallError
		if !errors.As(err, &stall) {
			t.Fatalf("error chain lost the StallError: %v", err)
		}
		if errors.Is(err, resilience.ErrBudgetExhausted) {
			sawExhausted = true
		}
	}
	// 4 goroutines × up to 10 retries against a 2-token bucket: the
	// budget must have been the binding constraint for someone.
	if !sawExhausted {
		t.Fatalf("no caller hit ErrBudgetExhausted: %v", errs)
	}
	s.Release(km)
	if err := s.CheckQuiesced(); err != nil {
		t.Fatal(err)
	}
	checkGoroutines(t, before)
}

// TestPolicyRetrySucceeds: a stall on the first attempt followed by a
// release must succeed on a budgeted retry.
func TestPolicyRetrySucceeds(t *testing.T) {
	tbl, keys := keyedTable(t)
	s := core.NewSemantic(tbl)
	km := keys.Mode(2)
	s.Acquire(km)

	p := resilience.New("t", resilience.Config{
		Patience: 5 * time.Millisecond,
		Retries:  3,
		Backoff:  resilience.Backoff{Base: 100 * time.Microsecond, Max: time.Millisecond},
		Budget:   &resilience.BudgetConfig{Capacity: 10, RefillPerSec: 100},
	})
	// The blocker outlasts the first attempt, whatever the scheduler
	// does, and is gone before the second one acquires: the retry itself
	// releases it.
	ran := 0
	err := p.Run(func(tx *core.Txn) error {
		ran++
		if ran == 2 {
			s.Release(km)
		}
		return p.Acquire(tx, s, km, 0)
	})
	if err != nil {
		t.Fatalf("budgeted retry failed: %v", err)
	}
	if ran < 2 {
		t.Fatalf("section ran %d times, want a retry", ran)
	}
	if err := s.CheckQuiesced(); err != nil {
		t.Fatal(err)
	}
}

// TestGateQueueAndShed: a pressured gate caps in-flight sections,
// queues FIFO, sheds beyond the queue bound with ErrShed, and drains
// the queue when pressure lifts.
func TestGateQueueAndShed(t *testing.T) {
	g := resilience.NewGate("t", resilience.GateConfig{
		MaxConcurrent: 1,
		QueueDepth:    1,
		QueueTimeout:  time.Minute,
	})
	g.SetPressure(true)
	if err := g.Enter(); err != nil {
		t.Fatalf("first Enter under capacity: %v", err)
	}
	// Second arrival queues; it must be admitted when the first exits.
	admitted := make(chan error, 1)
	go func() { admitted <- g.Enter() }()
	deadline := time.Now().Add(5 * time.Second)
	for g.Stats().Counters["queued"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second arrival never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// Third arrival: queue full → immediate shed.
	if err := g.Enter(); !errors.Is(err, resilience.ErrShed) {
		t.Fatalf("over-queue Enter: %v, want ErrShed", err)
	}
	g.Exit()
	if err := <-admitted; err != nil {
		t.Fatalf("queued arrival refused: %v", err)
	}
	g.Exit()

	// Queue timeout sheds.
	gt := resilience.NewGate("t2", resilience.GateConfig{
		MaxConcurrent: 1,
		QueueDepth:    4,
		QueueTimeout:  5 * time.Millisecond,
	})
	gt.SetPressure(true)
	if err := gt.Enter(); err != nil {
		t.Fatal(err)
	}
	if err := gt.Enter(); !errors.Is(err, resilience.ErrShed) {
		t.Fatalf("queue-timeout Enter: %v, want ErrShed", err)
	}
	gt.Exit()

	// Pressure release drains the whole queue.
	gd := resilience.NewGate("t3", resilience.GateConfig{
		MaxConcurrent: 1,
		QueueDepth:    8,
		QueueTimeout:  time.Minute,
	})
	gd.SetPressure(true)
	if err := gd.Enter(); err != nil {
		t.Fatal(err)
	}
	results := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() { results <- gd.Enter() }()
	}
	deadline = time.Now().Add(5 * time.Second)
	for gd.Stats().Counters["queued"] < 3 {
		if time.Now().After(deadline) {
			t.Fatal("arrivals never queued")
		}
		time.Sleep(time.Millisecond)
	}
	gd.SetPressure(false)
	for i := 0; i < 3; i++ {
		if err := <-results; err != nil {
			t.Fatalf("queued arrival after pressure release: %v", err)
		}
	}
}

// TestGateConcurrencyRace hammers Enter/Exit against pressure flips.
// Run under -race; the invariant is only that every admitted Enter is
// balanced and nothing deadlocks or panics.
func TestGateConcurrencyRace(t *testing.T) {
	g := resilience.NewGate("t", resilience.GateConfig{
		MaxConcurrent: 2,
		QueueDepth:    4,
		QueueTimeout:  500 * time.Microsecond,
	})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		on := false
		for {
			select {
			case <-stop:
				g.SetPressure(false)
				return
			default:
				on = !on
				g.SetPressure(on)
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if err := g.Enter(); err == nil {
					time.Sleep(10 * time.Microsecond)
					g.Exit()
				} else if !errors.Is(err, resilience.ErrShed) {
					t.Errorf("unexpected Enter error: %v", err)
				}
			}
		}()
	}
	close(stop)
	wg.Wait()
	st := g.Stats()
	if st.Rates["inflight"] != 0 || st.Rates["queue_depth"] != 0 {
		t.Fatalf("gate not quiescent after hammer: %+v", st.Rates)
	}
}

// TestManagerWiresSignals: the manager's stall feed must reach policy
// breakers, waiter samples must drive gate pressure hysteresis, and
// Stop must restore the previous observer.
func TestManagerWiresSignals(t *testing.T) {
	prev := core.SetStallObserver(nil)
	defer core.SetStallObserver(prev)

	m := resilience.NewManager(nil, time.Millisecond)
	p := resilience.New("t", resilience.Config{
		Patience: time.Millisecond,
		Breaker:  &resilience.BreakerConfig{TripStallRate: 1, Cooldown: time.Minute},
		Gate:     &resilience.GateConfig{PressureOn: 4, PressureOff: 1, QueueTimeout: time.Millisecond},
	})
	m.Add(p)
	m.Start()
	defer m.Stop()

	// A real stall must land in the breaker window via the feed.
	tbl, keys := keyedTable(t)
	s := core.NewSemantic(tbl)
	km := keys.Mode(3)
	s.Acquire(km)
	for i := 0; i < 5; i++ {
		if err := s.AcquireWithin(km, time.Millisecond); err == nil {
			t.Fatal("acquisition against a live holder succeeded")
		}
	}
	s.Release(km)
	if _, err := p.Breaker().Allow(); !errors.Is(err, resilience.ErrBreakerOpen) {
		t.Fatalf("breaker untouched by stall feed: %v", err)
	}

	// Waiter pressure hysteresis.
	p.ObserveWaiters(10)
	if !p.Gate().Pressured() {
		t.Fatal("gate not pressured at waiters=10")
	}
	p.ObserveWaiters(2) // between off(1) and on(4): unchanged
	if !p.Gate().Pressured() {
		t.Fatal("hysteresis released pressure early")
	}
	p.ObserveWaiters(0)
	if p.Gate().Pressured() {
		t.Fatal("gate still pressured at waiters=0")
	}
}
