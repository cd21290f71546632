package resilience_test

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/resilience"
)

// TestBreakerStateMachine walks the full cycle deterministically:
// closed → (stall rate) open → (cooldown) half-open → (probe failure)
// open again → (cooldown + consecutive probe successes) closed.
func TestBreakerStateMachine(t *testing.T) {
	b := resilience.NewBreaker("t", resilience.BreakerConfig{
		Window:        200 * time.Millisecond,
		Buckets:       4,
		TripStallRate: 10, // 2 events in the 200ms window
		Cooldown:      20 * time.Millisecond,
		Probes:        2,
	})
	if b.State() != resilience.BreakerClosed {
		t.Fatalf("initial state %v", b.State())
	}
	done, err := b.Allow()
	if err != nil {
		t.Fatalf("closed Allow: %v", err)
	}
	done(true)

	// Trip on windowed stall rate.
	for i := 0; i < 5; i++ {
		b.RecordStall()
	}
	if b.State() != resilience.BreakerOpen {
		t.Fatalf("state after trip %v", b.State())
	}
	// Still open inside the cooldown.
	if _, err := b.Allow(); !errors.Is(err, resilience.ErrBreakerOpen) {
		t.Fatalf("cooldown Allow: %v, want ErrBreakerOpen", err)
	}

	// Cooldown elapses → half-open; a failed probe reopens.
	time.Sleep(25 * time.Millisecond)
	done, err = b.Allow()
	if err != nil {
		t.Fatalf("half-open probe refused: %v", err)
	}
	if b.State() != resilience.BreakerHalfOpen {
		t.Fatalf("state during probe %v", b.State())
	}
	done(false)
	if b.State() != resilience.BreakerOpen {
		t.Fatalf("state after failed probe %v", b.State())
	}

	// Cooldown again → half-open → Probes consecutive successes close.
	time.Sleep(25 * time.Millisecond)
	for i := 0; i < 2; i++ {
		done, err = b.Allow()
		if err != nil {
			t.Fatalf("probe %d refused: %v", i, err)
		}
		done(true)
	}
	if b.State() != resilience.BreakerClosed {
		t.Fatalf("state after successful probes %v", b.State())
	}
	// Closed again: traffic flows, and done is single-shot safe.
	done, err = b.Allow()
	if err != nil {
		t.Fatalf("Allow after reclose: %v", err)
	}
	done(true)
	done(true) // double-invoke must be a no-op
}

// TestBreakerTripsOnStall: the trip decision sits on the stall path. The
// stall that lifts the windowed rate to TripStallRate opens the breaker
// by itself — no Allow in between — and the stalls below it do not; a
// closed Allow allocates nothing.
func TestBreakerTripsOnStall(t *testing.T) {
	b := resilience.NewBreaker("t", resilience.BreakerConfig{
		TripStallRate: 10, // 10 events in the default 1s window
		Cooldown:      time.Minute,
	})
	if n := testing.AllocsPerRun(100, func() {
		done, err := b.Allow()
		if err != nil {
			t.Fatal(err)
		}
		done(true)
	}); n != 0 {
		t.Fatalf("closed Allow allocates %v per call, want 0", n)
	}
	for i := 0; i < 9; i++ {
		b.RecordStall()
	}
	if b.State() != resilience.BreakerClosed {
		t.Fatalf("state below the trip rate %v, want closed", b.State())
	}
	b.RecordStall()
	if b.State() != resilience.BreakerOpen {
		t.Fatalf("state after the crossing stall %v, want open", b.State())
	}
	if got := b.Stats().Counters["tripped"]; got != 1 {
		t.Fatalf("tripped = %d, want 1", got)
	}
}

// TestBreakerReclosedIgnoresStaleStalls: the stalls that tripped the
// breaker are still inside its window when the probes reclose it. The
// next admission must not re-read them and reopen the breaker — only a
// new stall may trip it again.
func TestBreakerReclosedIgnoresStaleStalls(t *testing.T) {
	b := resilience.NewBreaker("t", resilience.BreakerConfig{
		TripStallRate: 10,
		Cooldown:      time.Millisecond,
		Probes:        3,
	})
	for i := 0; i < 50; i++ {
		b.RecordStall()
	}
	if _, err := b.Allow(); !errors.Is(err, resilience.ErrBreakerOpen) {
		t.Fatalf("Allow after 50 stalls: %v, want ErrBreakerOpen", err)
	}
	time.Sleep(2 * time.Millisecond)
	for i := 0; i < 3; i++ {
		done, err := b.Allow()
		if err != nil {
			t.Fatalf("probe %d refused: %v", i, err)
		}
		done(true)
	}
	if b.State() != resilience.BreakerClosed {
		t.Fatalf("state after successful probes %v", b.State())
	}
	if _, err := b.Allow(); err != nil {
		t.Fatalf("reclosed breaker refused on stale stalls: %v", err)
	}
	if b.State() != resilience.BreakerClosed {
		t.Fatalf("state after admission %v, want closed", b.State())
	}
}

// TestBreakerHalfOpenProbeQuota: while half-open, at most Probes
// concurrent attempts are admitted; the rest are refused.
func TestBreakerHalfOpenProbeQuota(t *testing.T) {
	b := resilience.NewBreaker("t", resilience.BreakerConfig{
		TripStallRate: 1,
		Cooldown:      time.Millisecond,
		Probes:        2,
	})
	for i := 0; i < 10; i++ {
		b.RecordStall()
	}
	if b.State() != resilience.BreakerOpen {
		t.Fatal("breaker did not trip")
	}
	time.Sleep(2 * time.Millisecond)

	d1, err1 := b.Allow()
	d2, err2 := b.Allow()
	if err1 != nil || err2 != nil {
		t.Fatalf("probe admissions: %v, %v", err1, err2)
	}
	if _, err := b.Allow(); !errors.Is(err, resilience.ErrBreakerOpen) {
		t.Fatalf("third concurrent probe admitted: %v", err)
	}
	d1(true)
	d2(true)
	if b.State() != resilience.BreakerClosed {
		t.Fatalf("state after probe successes %v", b.State())
	}
}

// TestBreakerConcurrentProbesRace hammers the state machine from many
// goroutines — concurrent Allow/done with mixed outcomes racing
// RecordStall — then verifies the breaker still
// converges: with stalls stopped and only successes voting, it must end
// closed. Run under -race.
func TestBreakerConcurrentProbesRace(t *testing.T) {
	// TripStallRate 20 over a 50ms window: a single stall event in the
	// window trips, so the feeder keeps the breaker cycling through
	// open/half-open/closed for the whole hammer.
	b := resilience.NewBreaker("t", resilience.BreakerConfig{
		Window:        50 * time.Millisecond,
		Buckets:       4,
		TripStallRate: 20,
		Cooldown:      time.Millisecond,
		Probes:        3,
	})
	var wg, feederWG sync.WaitGroup
	stopStalls := make(chan struct{})
	feederWG.Add(1)
	go func() {
		defer feederWG.Done()
		for {
			select {
			case <-stopStalls:
				return
			default:
				b.RecordStall()
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 500; i++ {
				done, err := b.Allow()
				if err != nil {
					if !errors.Is(err, resilience.ErrBreakerOpen) {
						t.Errorf("unexpected refusal: %v", err)
					}
					time.Sleep(time.Duration(r.Intn(200)) * time.Microsecond)
					continue
				}
				if r.Intn(3) == 0 {
					done(false)
				} else {
					done(true)
				}
				time.Sleep(time.Duration(r.Intn(50)) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	close(stopStalls)
	feederWG.Wait()

	// Pressure is gone: drive success-only traffic until it converges
	// closed (the stall window decays within 50ms).
	deadline := time.Now().Add(5 * time.Second)
	for b.State() != resilience.BreakerClosed {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never re-closed; state %v, stats %+v", b.State(), b.Stats())
		}
		if done, err := b.Allow(); err == nil {
			done(true)
		}
		time.Sleep(time.Millisecond)
	}
	st := b.Stats()
	if st.Counters["probes"] == 0 || st.Counters["tripped"] == 0 {
		t.Fatalf("hammer left no trace: %+v", st.Counters)
	}
}
