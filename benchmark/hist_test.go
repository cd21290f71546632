package main

import (
	"math"
	"sort"
	"testing"
	"time"
)

// exactQuantile is the rank-ceil(q·n) sample of sorted, the definition
// Hist.Quantile approximates.
func exactQuantile(sorted []uint64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return float64(sorted[rank-1])
}

func TestHistQuantilesWithinOnePercent(t *testing.T) {
	r := newRNG(7, 0, 0)
	unit := func() float64 { return float64(r.next()>>11) / (1 << 53) }
	shapes := map[string]func() uint64{
		// 1 µs .. 100 µs, flat.
		"uniform": func() uint64 { return 1000 + uint64(unit()*99000) },
		// The two values client.Hist's power-of-two buckets confuse.
		"bimodal": func() uint64 {
			mode := 12000.0
			if unit() < 0.5 {
				mode = 25000
			}
			return uint64(mode * (0.98 + 0.04*unit()))
		},
		// Pareto tail from 5 µs out to tens of milliseconds.
		"long tail": func() uint64 { return uint64(5000 / math.Pow(1-unit(), 1/1.2)) },
	}
	for name, draw := range shapes {
		var h Hist
		samples := make([]uint64, 200000)
		for i := range samples {
			samples[i] = draw()
			h.RecordN(time.Duration(samples[i]), 1)
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			want, got := exactQuantile(samples, q), h.Quantile(q)
			if math.Abs(got-want) > 0.01*want {
				t.Errorf("%s q=%v: histogram says %.0f ns, exact is %.0f ns (%.2f %% off)",
					name, q, got, want, 100*(got-want)/want)
			}
		}
	}
}

func TestHistBuckets(t *testing.T) {
	last := -1
	for v := uint64(0); v < 1<<histMaxBits; v += 1 + v/97 {
		i := histIndex(v)
		if i < last || i >= histBuckets {
			t.Fatalf("histIndex(%d) = %d after %d (buckets %d)", v, i, last, histBuckets)
		}
		last = i
		if lo, width := histBounds(i); v < lo || v >= lo+width || float64(width-1) > 0.01*float64(lo) {
			t.Fatalf("value %d lands in bucket %d = [%d, %d): outside it, or the bucket is wider than 1 %%", v, i, lo, lo+width)
		}
	}
	if i := histIndex(math.MaxUint64); i != histBuckets-1 {
		t.Errorf("an overlong sample lands in bucket %d, want the last one (%d)", i, histBuckets-1)
	}
}

func TestHistMergeAndRecordN(t *testing.T) {
	var a, b, both Hist
	for i := 1; i <= 1000; i++ {
		d := time.Duration(i * 37)
		if i%2 == 0 {
			a.RecordN(d, 3)
		} else {
			b.RecordN(d, 3)
		}
		for j := 0; j < 3; j++ {
			both.RecordN(d, 1)
		}
	}
	a.Merge(&b)
	if a != both {
		t.Errorf("merging two histograms differs from recording into one (%d vs %d samples)", a.Count(), both.Count())
	}
	var empty Hist
	if q := empty.Quantile(0.5); q != 0 {
		t.Errorf("empty histogram median = %v, want 0", q)
	}
	if n := testing.AllocsPerRun(100, func() { a.RecordN(1234, 8); a.Merge(&b) }); n != 0 {
		t.Errorf("RecordN+Merge allocate %v times, want 0", n)
	}
}
