package gossip

import (
	"fmt"
	"testing"

	"repro/internal/modules/plan"
)

// BenchmarkGossipChurnMix is the benchmark harness's gossip-churn
// workload as a `go test -bench` loop, so the next profile of it is
// `go test -run '^$' -bench GossipChurnMix -cpuprofile`: the fused router
// called in process through its string-keyed methods, 4 groups of 16
// members (send cost 60, 64-byte payload) of which the upper 8 churn,
// and the mix 40 % unicast, 10 % multicast, 30 % lookup, 10 % register,
// 10 % unregister, drawn from an xorshift generator.
func BenchmarkGossipChurnMix(b *testing.B) {
	const groups, members, stable, sendCost = 4, 16, 8, 60
	o := NewOursFused(sendCost, plan.Options{})
	var gn [groups]string
	var mn [members]string
	var sinks [groups][members]*Conn
	for m := range mn {
		mn[m] = fmt.Sprintf("m%d", m)
	}
	for g := range gn {
		gn[g] = fmt.Sprintf("g%d", g)
		for m := range mn {
			sinks[g][m] = NewConn(mn[m], sendCost)
			o.Register(gn[g], mn[m], sinks[g][m])
		}
	}
	payload := make([]byte, 64)
	x := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		r := x * 0x2545f4914f6cdd1d
		g := r & (groups - 1)
		m := (r >> 2) & (stable - 1)
		switch p := (r >> 8) % 100; {
		case p < 40:
			o.Unicast(gn[g], mn[m], payload)
		case p < 50:
			o.Multicast(gn[g], payload)
		case p < 80:
			if !o.Lookup(gn[g], mn[m]) {
				b.Fatal("lookup of a stable member answered false")
			}
		case p < 90:
			o.Register(gn[g], mn[stable+m], sinks[g][stable+m])
		default:
			o.Unregister(gn[g], mn[stable+m])
		}
	}
}
