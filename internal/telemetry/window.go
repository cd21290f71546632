// Windowed rates: a resilience breaker acts on "stalls per second over
// the last N milliseconds", not lifetime counters, so this file adds a
// small bucketed sliding window. Each breaker fills its own from the
// stalls its policy's sections return.

package telemetry

import (
	"sync"
	"time"
)

// RateWindow is a bucketed sliding-window event counter: Add records
// events now, Sum/Rate report over the trailing window only. The window
// is split into buckets; as time advances, expired buckets are zeroed
// lazily on the next access, so an idle window decays to zero without a
// background goroutine. Mutex-based — stall events are rare by
// definition, so the lock is never contended on a healthy runtime.
type RateWindow struct {
	mu        sync.Mutex
	bucketDur time.Duration
	buckets   []uint64
	head      int       // index of the bucket covering headStart
	headStart time.Time // start of the head bucket's interval
}

// NewRateWindow creates a window covering the trailing `window` duration
// in `buckets` equal slices. buckets < 1 is treated as 1; window must be
// positive. When window is not divisible by buckets the bucket duration
// rounds UP (ceilDiv), so the covered span buckets×bucketDur is always
// >= the requested window — truncating here made a 1s/7-bucket window
// silently cover 994ms, under-reporting every rate read from it.
func NewRateWindow(window time.Duration, buckets int) *RateWindow {
	if buckets < 1 {
		buckets = 1
	}
	if window <= 0 {
		window = time.Second
	}
	return &RateWindow{
		bucketDur: ceilDiv(window, buckets),
		buckets:   make([]uint64, buckets),
		headStart: time.Now(),
	}
}

// ceilDiv splits window into n bucket durations rounding up, so the
// buckets jointly cover at least the requested window. A sliding window
// that covers slightly more than asked overcounts nothing — Sum still
// only reads recorded events — while one that covers less silently
// drops the tail of the requested span.
func ceilDiv(window time.Duration, n int) time.Duration {
	return (window + time.Duration(n) - 1) / time.Duration(n)
}

// advanceLocked rotates the ring so the head bucket covers now, zeroing
// every bucket whose interval expired. Callers hold mu.
func (w *RateWindow) advanceLocked(now time.Time) {
	steps := int(now.Sub(w.headStart) / w.bucketDur)
	if steps <= 0 {
		return
	}
	if steps >= len(w.buckets) {
		for i := range w.buckets {
			w.buckets[i] = 0
		}
		w.head = 0
		w.headStart = now
		return
	}
	for i := 0; i < steps; i++ {
		w.head = (w.head + 1) % len(w.buckets)
		w.buckets[w.head] = 0
	}
	w.headStart = w.headStart.Add(time.Duration(steps) * w.bucketDur)
}

// Add records n events at the current time.
func (w *RateWindow) Add(n uint64) {
	w.mu.Lock()
	w.advanceLocked(time.Now())
	w.buckets[w.head] += n
	w.mu.Unlock()
}

// Sum returns the event count inside the trailing window.
func (w *RateWindow) Sum() uint64 {
	w.mu.Lock()
	w.advanceLocked(time.Now())
	var s uint64
	for _, b := range w.buckets {
		s += b
	}
	w.mu.Unlock()
	return s
}

// Rate returns events per second over the trailing window.
func (w *RateWindow) Rate() float64 {
	span := w.bucketDur * time.Duration(len(w.buckets))
	return float64(w.Sum()) / span.Seconds()
}
