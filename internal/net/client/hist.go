package client

import (
	"math/bits"
	"time"
)

// Hist is a log-bucketed latency histogram: bucket i counts samples in
// [2^(i-1), 2^i) nanoseconds, so 64 fixed buckets cover every duration
// with ≤ 2× quantile error — plenty for p50/p95/p99 over a sweep, at
// zero allocation and one increment per sample. Not safe for concurrent
// use; each load worker records into its own and the results are
// merged.
type Hist struct {
	counts [65]uint64
	n      uint64
}

// Record adds one latency sample.
func (h *Hist) Record(d time.Duration) {
	ns := uint64(d)
	if d < 0 {
		ns = 0
	}
	h.counts[bits.Len64(ns)]++
	h.n++
}

// Count returns the number of recorded samples.
func (h *Hist) Count() uint64 { return h.n }

// Merge folds o into h.
func (h *Hist) Merge(o *Hist) {
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.n += o.n
}

// Quantile returns the q-th (0..1) latency estimate: the geometric
// midpoint of the bucket holding the q-th sample.
func (h *Hist) Quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	target := uint64(q * float64(h.n))
	if target >= h.n {
		target = h.n - 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if c > 0 && seen > target {
			if i == 0 {
				return 0
			}
			lo := uint64(1) << (i - 1)
			return time.Duration(lo + lo/2) // midpoint of [2^(i-1), 2^i)
		}
	}
	return 0
}
