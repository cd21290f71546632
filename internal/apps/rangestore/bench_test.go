package rangestore

import (
	"testing"

	"repro/internal/core"
)

// BenchmarkRangestoreMix is the benchmark harness's rangestore-scan
// workload as a `go test -bench` loop (profile it with -cpuprofile): 8
// shards over 4096 preloaded keys, and the mix 88 % Get, 5 % Put of a
// never-toggled key, 5 % PutPair in the toggled quarter, 2 % Scan,
// drawn from an xorshift generator.
func BenchmarkRangestoreMix(b *testing.B) {
	const shards, capacity, toggle = 8, 4096, 4096 / 4
	s := New(shards, capacity)
	for k := 0; k < capacity/2; k++ {
		s.PutPair(k)
	}
	var stored core.Value = 1
	x := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		r := x * 0x2545f4914f6cdd1d
		switch p := (r >> 8) % 100; {
		case p < 88:
			k := int((r >> 16) % capacity)
			if s.Get(k) == nil && k%(capacity/2) >= toggle {
				b.Fatalf("get of never-removed key %d found nothing", k)
			}
		case p < 93:
			k := toggle + int((r>>16)%(capacity/2-toggle)) + int((r>>40)&1)*(capacity/2)
			s.Put(k, stored)
		case p < 98:
			s.PutPair(int((r >> 16) % toggle))
		default:
			if n := s.Scan(); n%2 != 0 {
				b.Fatalf("scan counted %d entries, want an even number", n)
			}
		}
	}
}
