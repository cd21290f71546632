// Windowed rates: the resilience layer's breakers act on "stalls per
// second over the last N milliseconds", not lifetime counters, so this
// file adds small bucketed sliding windows and the StallFeed that fills
// one from core's unified stall-observer hook (core.SetStallObserver).
// Both stall clocks — bounded-acquisition timeouts and watchdog
// threshold scans — arrive on the same feed, so a breaker can never see
// two contradictory stall counts.

package telemetry

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
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
	total     uint64    // lifetime count, never decayed
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
	w.total += n
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

// Total returns the lifetime event count (never decayed).
func (w *RateWindow) Total() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.total
}

// StallFeed is the single funnel for core's stall observations: Install
// registers it as the process-wide stall observer, after which every
// bounded-acquisition timeout and every watchdog threshold report lands
// in one RateWindow and is fanned out to subscribers (resilience
// breakers keep per-policy windows this way). One feed, one clock — the
// satellite fix for StallError.Waited and Watchdog reports previously
// being two unrelated counts.
type StallFeed struct {
	win      *RateWindow
	timeouts atomic.Uint64
	watchdog atomic.Uint64

	mu   sync.Mutex
	subs []func(core.StallEvent)
}

// NewStallFeed creates a feed whose windowed rate covers the trailing
// `window` duration in `buckets` slices.
func NewStallFeed(window time.Duration, buckets int) *StallFeed {
	return &StallFeed{win: NewRateWindow(window, buckets)}
}

// Install registers the feed as the process-wide stall observer and
// returns the previously installed observer (chained: the feed forwards
// every event to it, so installing a feed never silences an existing
// consumer). Uninstall by calling core.SetStallObserver with the
// returned value — or nil to clear everything.
func (f *StallFeed) Install() (prev func(core.StallEvent)) {
	prev = core.SetStallObserver(f.observe)
	f.mu.Lock()
	if prev != nil {
		f.subs = append(f.subs, prev)
	}
	f.mu.Unlock()
	return prev
}

// Subscribe adds a synchronous consumer called for every stall event.
// Subscribers run on the stalling goroutine or the watchdog sampler —
// keep them brief and never acquire semantic locks inside.
func (f *StallFeed) Subscribe(fn func(core.StallEvent)) {
	f.mu.Lock()
	f.subs = append(f.subs, fn)
	f.mu.Unlock()
}

func (f *StallFeed) observe(ev core.StallEvent) {
	f.win.Add(1)
	if ev.Source == core.StallWatchdog {
		f.watchdog.Add(1)
	} else {
		f.timeouts.Add(1)
	}
	f.mu.Lock()
	subs := f.subs
	f.mu.Unlock()
	for _, fn := range subs {
		fn(ev)
	}
}

// Sum returns the stall events inside the trailing window.
func (f *StallFeed) Sum() uint64 { return f.win.Sum() }

// Counts returns the lifetime event counts by source.
func (f *StallFeed) Counts() (timeouts, watchdog uint64) {
	return f.timeouts.Load(), f.watchdog.Load()
}
