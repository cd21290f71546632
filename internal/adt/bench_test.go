package adt

import (
	"testing"

	"repro/internal/core"
)

var sinkValue core.Value
var sinkValues []core.Value

// benchKeys returns n pre-boxed int keys, so the loops below measure
// the map and not the boxing.
func benchKeys(n int) []core.Value {
	keys := make([]core.Value, n)
	for i := range keys {
		keys[i] = i
	}
	return keys
}

// BenchmarkHashMapGet: hits on a 4096-key map (64 keys a stripe — the
// rangestore shard shape).
func BenchmarkHashMapGet(b *testing.B) {
	keys := benchKeys(4096)
	m := NewHashMap()
	for _, k := range keys {
		m.Put(k, k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkValue = m.Get(keys[i&4095])
	}
}

// BenchmarkHashMapPutRemove: insert then delete of an absent key in a
// 16-key map — the gossip member map under churn, where most stripes
// flip between empty and one binding.
func BenchmarkHashMapPutRemove(b *testing.B) {
	keys := benchKeys(32)
	m := NewHashMap()
	for _, k := range keys[:16] {
		m.Put(k, k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[16+i&15]
		m.Put(k, k)
		m.Remove(k)
	}
}

func benchValues(b *testing.B, n int) {
	m := NewHashMap()
	for _, k := range benchKeys(n) {
		m.Put(k, k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkValues = m.Values()
	}
}

// BenchmarkHashMapValues16 is the snapshot walk over a map the size of a
// member map — what multicast paid before RangeHeld.
func BenchmarkHashMapValues16(b *testing.B) { benchValues(b, 16) }

// BenchmarkHashMapValues4096 is the same walk with every stripe full.
func BenchmarkHashMapValues4096(b *testing.B) { benchValues(b, 4096) }

var sinkInt int

func benchRangeHeld(b *testing.B, n int) {
	m := NewHashMap()
	for _, k := range benchKeys(n) {
		m.Put(k, k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seen := 0
		m.RangeHeld(func(_, v core.Value) bool {
			sinkValue = v
			seen++
			return true
		})
		sinkInt = seen
	}
}

// BenchmarkHashMapRangeHeld16 is the walk of BenchmarkHashMapValues16 as
// multicast now takes it: no stripe mutex, no snapshot.
func BenchmarkHashMapRangeHeld16(b *testing.B) { benchRangeHeld(b, 16) }

// BenchmarkHashMapRangeHeld4096 is the same with every stripe full.
func BenchmarkHashMapRangeHeld4096(b *testing.B) { benchRangeHeld(b, 4096) }
