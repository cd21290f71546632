package core_test

import (
	"testing"

	"repro/internal/adt"
	"repro/internal/adtspecs"
	"repro/internal/core"
)

var sinkValue core.Value

// BenchmarkOptimisticRead prices one point read — one instance, one
// key mode, a HashMap.Get body — through the three section shapes: the
// bare Snapshot on the caller's stack, the TryOptimistic envelope on a
// pooled transaction, and the pessimistic prologue. The first against
// the second is what the transaction costs a section that holds
// nothing; the first against the third is whether the optimistic path
// pays at all. It is the companion of BenchmarkSectionSkeleton
// (lockmech_bench_test.go), and lives in the external test package
// because internal/adt imports core.
func BenchmarkOptimisticRead(b *testing.B) {
	getSet := core.SymSetOf(core.SymOpOf("get", core.VarArg("k")))
	writeSet := core.SymSetOf(
		core.SymOpOf("put", core.VarArg("k"), core.Star()),
		core.SymOpOf("remove", core.VarArg("k")))
	tbl := core.NewModeTable(adtspecs.Map(), []core.SymSet{getSet, writeSet},
		core.TableOptions{Phi: core.NewPhi(16)})
	getRef := tbl.Set(getSet)
	sem := core.NewSemantic(tbl)
	m := adt.NewHashMap()
	const keys = 1024
	for k := 0; k < keys; k++ {
		m.Put(k, k)
	}

	b.Run("snapshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			kv := core.Value(i % keys)
			var sn core.Snapshot
			if !sn.Observe(sem, getRef.Mode1(kv)) {
				b.Fatal("uncontended Observe refused")
			}
			v := m.Get(kv)
			if !sn.Validate() {
				b.Fatal("uncontended Validate failed")
			}
			sinkValue = v
		}
	})
	b.Run("envelope", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			kv := core.Value(i % keys)
			core.Atomically(func(tx *core.Txn) {
				if !tx.TryOptimistic(func(tx *core.Txn) bool {
					if !tx.Observe(sem, getRef.Mode1(kv), 0) {
						return false
					}
					sinkValue = m.Get(kv)
					return true
				}) {
					b.Fatal("uncontended envelope failed")
				}
			})
		}
	})
	b.Run("pessimistic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			kv := core.Value(i % keys)
			core.Atomically(func(tx *core.Txn) {
				tx.Lock(sem, getRef.Mode1(kv), 0)
				sinkValue = m.Get(kv)
			})
		}
	})
}
