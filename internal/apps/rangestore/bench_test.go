package rangestore

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// BenchmarkRangestoreMix drives the store with b.RunParallel (profile it
// with -cpuprofile, scale it with -cpu 1,2): 8 shards over 4096
// preloaded keys, each worker drawing from its own xorshift generator.
// "shipped" is the benchmark harness's rangestore-scan mix; "writers" is
// a writer-dominated mix that gives optimistic reads the most chances to
// fail. Each reports the share of optimistic reads, over every observed
// instance, that failed validation (retry-frac) or were turned away by a
// visible holder (refusal-frac). A broken oracle fails the benchmark with
// Errorf and stops that worker: FailNow belongs to the benchmark's own
// goroutine.
func BenchmarkRangestoreMix(b *testing.B) {
	mixes := []struct {
		name              string
		get, put, putPair uint64 // percent; the rest is Scan
	}{
		{"shipped", 88, 5, 5},
		{"writers", 20, 30, 30},
	}
	for _, mix := range mixes {
		b.Run(mix.name, func(b *testing.B) {
			const shards, capacity, toggle = 8, 4096, 4096 / 4
			s := New(shards, capacity)
			for k := 0; k < capacity/2; k++ {
				s.PutPair(k)
			}
			var stored core.Value = 1
			var seeds atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				x := seeds.Add(1) * 0x9e3779b97f4a7c15
				for pb.Next() {
					x ^= x >> 12
					x ^= x << 25
					x ^= x >> 27
					r := x * 0x2545f4914f6cdd1d
					switch p := (r >> 8) % 100; {
					case p < mix.get:
						k := int((r >> 16) % capacity)
						if s.Get(k) == nil && k%(capacity/2) >= toggle {
							b.Errorf("get of never-removed key %d found nothing", k)
							return
						}
					case p < mix.get+mix.put:
						k := toggle + int((r>>16)%(capacity/2-toggle)) + int((r>>40)&1)*(capacity/2)
						s.Put(k, stored)
					case p < mix.get+mix.put+mix.putPair:
						s.PutPair(int((r >> 16) % toggle))
					default:
						if n := s.Scan(); n%2 != 0 {
							b.Errorf("scan counted %d entries, want an even number", n)
							return
						}
					}
				}
			})
			b.StopTimer()
			var hits, retries, refusals uint64
			for _, sem := range s.Sems() {
				st := sem.Stats()
				hits, retries, refusals = hits+st.OptimisticHits, retries+st.OptimisticRetries, refusals+st.OptimisticRefusals
			}
			if reads := float64(hits + retries + refusals); reads > 0 {
				b.ReportMetric(float64(retries)/reads, "retry-frac")
				b.ReportMetric(float64(refusals)/reads, "refusal-frac")
			}
		})
	}
}
