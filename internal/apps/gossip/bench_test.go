package gossip

import (
	"fmt"
	"testing"

	"repro/internal/cc"
	"repro/internal/modules/plan"
)

// lookupOf returns r's membership probe. Only Ours exports one; for a
// baseline it is that policy's Unicast without the send, so the mix
// below costs every policy the same five sections.
func lookupOf(r Router) func(group, member string) bool {
	switch r := r.(type) {
	case *Ours:
		return r.Lookup
	case *global:
		return func(group, member string) bool {
			r.mu.Enter()
			defer r.mu.Exit()
			m := r.inner(group, false)
			return m != nil && m.Get(member) != nil
		}
	case *twoPL:
		return func(group, member string) bool {
			var tx cc.TwoPL
			tx.Lock(r.groupsL)
			defer tx.UnlockAll()
			li := r.inner(group, false)
			if li == nil {
				return false
			}
			tx.Lock(li.l)
			return li.m.Get(member) != nil
		}
	case *manual:
		return func(group, member string) bool {
			ri := r.inner(group, false)
			if ri == nil {
				return false
			}
			ri.mu.RLock()
			defer ri.mu.RUnlock()
			return ri.m.Get(member) != nil
		}
	}
	panic(fmt.Sprintf("gossip: no lookup for %T", r))
}

// BenchmarkGossipChurnMix is the benchmark harness's gossip-churn
// workload as a `go test -bench` loop, so the next profile of it is
// `go test -run '^$' -bench GossipChurnMix/ours -cpuprofile`: a
// router called in process through its string-keyed methods, 4 groups
// of 16 members (send cost 60, 64-byte payload) of which the upper 8
// churn, and the mix 40 % unicast, 10 % multicast, 30 % lookup, 10 %
// register, 10 % unregister, drawn from an xorshift generator. The
// harness runs ours; the baseline policies run the same mix beside it
// so "ours vs Global at one thread" (-cpu 1) is one command.
func BenchmarkGossipChurnMix(b *testing.B) {
	for _, policy := range []string{"ours", "global", "manual", "2pl"} {
		b.Run(policy, func(b *testing.B) { churnMix(b, New(policy, 60, plan.Options{})) })
	}
}

func churnMix(b *testing.B, o Router) {
	const groups, members, stable, sendCost = 4, 16, 8, 60
	lookup := lookupOf(o)
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
			if !lookup(gn[g], mn[m]) {
				b.Fatal("lookup of a stable member answered false")
			}
		case p < 90:
			o.Register(gn[g], mn[stable+m], sinks[g][stable+m])
		default:
			o.Unregister(gn[g], mn[stable+m])
		}
	}
}
