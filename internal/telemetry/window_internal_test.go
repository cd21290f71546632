package telemetry

import (
	"testing"
	"time"
)

// TestWindowBucketDurationCoversRequest pins the satellite fix for the
// truncating bucket division: for every (window, buckets) pair —
// divisible or not — buckets×bucketDur must cover at least the
// requested window. Before the fix, 1s over 7 buckets yielded 142ms
// buckets covering 994ms, so every Rate/Sum read from such a window
// silently dropped the tail of the span it claimed to report.
func TestWindowBucketDurationCoversRequest(t *testing.T) {
	cases := []struct {
		window  time.Duration
		buckets int
		want    time.Duration // expected bucketDur (ceil division)
	}{
		{time.Second, 1, time.Second},
		{time.Second, 4, 250 * time.Millisecond},
		{time.Second, 7, 142857143 * time.Nanosecond}, // ceil(1e9/7), not 142857142
		{time.Second, 3, 333333334 * time.Nanosecond}, // ceil(1e9/3)
		{100 * time.Millisecond, 6, 16666667 * time.Nanosecond},
		{7 * time.Nanosecond, 3, 3 * time.Nanosecond},
		{3 * time.Nanosecond, 7, time.Nanosecond},
		// buckets < 1 is treated as 1; non-positive window defaults 1s.
		{time.Second, 0, time.Second},
		{0, 5, 200 * time.Millisecond},
	}
	for _, c := range cases {
		rw := NewRateWindow(c.window, c.buckets)
		if rw.bucketDur != c.want {
			t.Errorf("NewRateWindow(%v, %d).bucketDur = %v, want %v",
				c.window, c.buckets, rw.bucketDur, c.want)
		}
		// The structural guarantee the fix exists for: covered span is
		// never below the requested window.
		wantWindow := c.window
		if wantWindow <= 0 {
			wantWindow = time.Second
		}
		if covered := rw.bucketDur * time.Duration(len(rw.buckets)); covered < wantWindow {
			t.Errorf("RateWindow(%v, %d) covers %v < requested %v",
				c.window, c.buckets, covered, wantWindow)
		}
	}
}
