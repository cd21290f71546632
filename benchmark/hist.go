package main

import (
	"math"
	"math/bits"
	"time"
)

// The histogram is log-linear: values below histSub nanoseconds get one
// bucket each, and every octave above that is cut into histSub equal
// sub-buckets, so a bucket is never wider than 1/128 of its lower bound
// and any value read from it is within 0.8 % of every sample in it.
// client.Hist's power-of-two buckets cannot tell 13 µs from 24 µs; this
// one is what every latency the benchmark reports is read from.
const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histMaxBits = 36 // samples are capped just under 2^36 ns (69 s)
	histBuckets = (histMaxBits - histSubBits + 1) * histSub
)

// Hist is a fixed-size latency histogram in nanoseconds. Record never
// allocates, and histograms filled by different workers or windows
// merge by adding counts.
type Hist struct {
	n      uint64
	counts [histBuckets]uint32
}

func histIndex(ns uint64) int {
	if ns < histSub {
		return int(ns)
	}
	if ns >= 1<<histMaxBits {
		ns = 1<<histMaxBits - 1
	}
	shift := bits.Len64(ns) - 1 - histSubBits
	return (shift+1)*histSub + int(ns>>uint(shift)) - histSub
}

// histBounds returns the lowest value of bucket i and the bucket's width.
func histBounds(i int) (lo, width uint64) {
	if i < histSub {
		return uint64(i), 1
	}
	shift := uint(i/histSub - 1)
	return uint64(histSub+i%histSub) << shift, 1 << shift
}

// RecordN records n samples of duration d.
func (h *Hist) RecordN(d time.Duration, n int) {
	if d < 0 {
		d = 0
	}
	h.counts[histIndex(uint64(d))] += uint32(n)
	h.n += uint64(n)
}

// Merge adds o's samples to h.
func (h *Hist) Merge(o *Hist) {
	if o.n == 0 {
		return
	}
	h.n += o.n
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
}

// Count is the number of samples recorded.
func (h *Hist) Count() uint64 { return h.n }

// Quantile returns the q-quantile in nanoseconds: the sample of rank
// ceil(q·n), placed inside its bucket as if the bucket's samples were
// spread evenly over it, so the result moves smoothly with q instead of
// jumping from one bucket's midpoint to the next. It is 0 on an empty
// histogram.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		if seen+uint64(c) >= rank {
			lo, width := histBounds(i)
			return float64(lo) + float64(width-1)*(float64(rank-seen)-0.5)/float64(c)
		}
		seen += uint64(c)
	}
	lo, width := histBounds(histBuckets - 1)
	return float64(lo + width - 1)
}
