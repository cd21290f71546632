package core

import (
	"fmt"
	"testing"
)

// Microbenchmarks for the hot path of every atomic section: semantic
// lock acquisition (fast path, slow path, wildcard conflict scan),
// mechanism-level contention, and Txn bookkeeping. Run with
// `go test -bench . ./internal/core`; CI smoke-runs them with
// -benchtime 10x.

// benchTable mirrors mapTable for benchmarks (no *testing.T).
func benchTable(n int) *ModeTable {
	sets := []SymSet{
		SymSetOf(SymOpOf("get", VarArg("k")), SymOpOf("put", VarArg("k"), Star()), SymOpOf("remove", VarArg("k"))),
		SymSetOf(SymOpOf("size")),
	}
	return NewModeTable(mapSpec(), sets, TableOptions{Phi: NewPhi(n)})
}

func benchKeyMode(tbl *ModeTable, k Value) ModeID {
	return tbl.Set(SymSetOf(
		SymOpOf("get", VarArg("k")), SymOpOf("put", VarArg("k"), Star()), SymOpOf("remove", VarArg("k")),
	)).Mode(k)
}

func benchSizeMode(tbl *ModeTable) ModeID {
	return tbl.Set(SymSetOf(SymOpOf("size"))).Mode()
}

// BenchmarkSemanticAcquireFastPath is the uncontended fine-grained
// acquisition: one claim, one short scan, one release.
func BenchmarkSemanticAcquireFastPath(b *testing.B) {
	tbl := benchTable(64)
	s := NewSemantic(tbl)
	m := benchKeyMode(tbl, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Acquire(m)
		s.Release(m)
	}
}

// BenchmarkSemanticAcquirePartitioned is the fast path of the common
// case after partitioning: a fine-grained-only class (no wildcard), so
// each key mode lives in its own small mechanism with summaries
// statically off — one RMW per claim.
func BenchmarkSemanticAcquirePartitioned(b *testing.B) {
	keySet := SymSetOf(SymOpOf("get", VarArg("k")), SymOpOf("put", VarArg("k"), Star()), SymOpOf("remove", VarArg("k")))
	tbl := NewModeTable(mapSpec(), []SymSet{keySet}, TableOptions{Phi: NewPhi(64)})
	s := NewSemantic(tbl)
	m := tbl.Set(keySet).Mode(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Acquire(m)
		s.Release(m)
	}
}

// BenchmarkSemanticAcquireWildcard acquires the size mode, whose
// conflict list covers all 64 per-bucket put slots: an exact scan
// would load 64 counters per acquisition, the word summaries two.
func BenchmarkSemanticAcquireWildcard(b *testing.B) {
	tbl := benchTable(64)
	s := NewSemantic(tbl)
	m := benchSizeMode(tbl)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Acquire(m)
		s.Release(m)
	}
}

// BenchmarkSemanticAcquireSlowPath forces every acquisition through the
// internal lock (ablation A4's configuration).
func BenchmarkSemanticAcquireSlowPath(b *testing.B) {
	tbl := benchTable(64)
	s := NewSemantic(tbl)
	s.disableFastPath = true
	m := benchKeyMode(tbl, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Acquire(m)
		s.Release(m)
	}
}

// BenchmarkMechanismContended mixes self-conflicting same-bucket
// acquisitions from parallel goroutines — the blocking/wakeup path.
func BenchmarkMechanismContended(b *testing.B) {
	tbl := benchTable(4)
	s := NewSemantic(tbl)
	m := benchKeyMode(tbl, 1)
	b.SetParallelism(4)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			s.Acquire(m)
			s.Release(m)
		}
	})
}

// BenchmarkAcquireRelease is one uncontended acquire + release with the
// mechanism engaged: a get(k) set beside a put(k,*) set, as gossip's and
// rangestore's tables have, so get(k) conflicts with something and owns
// a counter slot. (The benchmark ladder's core.acquire_release_ns locks
// a get-only table, whose modes conflict with nothing and touch no
// mechanism at all.) The observer mode claims and retreats; the mutator
// also advances the version counter.
func BenchmarkAcquireRelease(b *testing.B) {
	get := SymSetOf(SymOpOf("get", VarArg("k")))
	put := SymSetOf(SymOpOf("put", VarArg("k"), Star()))
	tbl := NewModeTable(mapSpec().Observer("get", "size"), []SymSet{get, put}, TableOptions{Phi: NewPhi(16)})
	for _, c := range []struct {
		name string
		mode ModeID
	}{
		{"observer", tbl.Set(get).Mode1(7)},
		{"mutator", tbl.Set(put).Mode1(7)},
	} {
		b.Run(c.name, func(b *testing.B) {
			s := NewSemantic(tbl)
			if s.table.part[c.mode] < 0 {
				b.Fatal("mode has no mechanism")
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Acquire(c.mode)
				s.Release(c.mode)
			}
		})
	}
}

// BenchmarkSectionSkeleton is an atomic section with nothing in it:
// the pooled transaction, the one deferred epilogue, Reset and Put —
// what every section pays before it locks anything, and what a read on
// a bare Snapshot does not (BenchmarkOptimisticRead, optread_bench_test.go,
// puts a point read in each shape).
func BenchmarkSectionSkeleton(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Atomically(func(*Txn) {})
	}
}

// BenchmarkTxnLockUnlockAll is a whole-transaction lock cycle over 8
// instances, the shape of a synthesized multi-instance atomic section.
func BenchmarkTxnLockUnlockAll(b *testing.B) {
	tbl := benchTable(64)
	sems := make([]*Semantic, 8)
	for i := range sems {
		sems[i] = NewSemantic(tbl)
	}
	m := benchKeyMode(tbl, 3)
	txn := NewTxn()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r, s := range sems {
			txn.Lock(s, m, r)
		}
		txn.UnlockAll()
		txn.Reset()
	}
}

// BenchmarkTxnHolds shows the Holds small-array-then-map crossover: the
// per-transaction cost of locking N instances is O(N²) with the linear
// LOCAL_SET scan and O(N) once the membership index kicks in past
// holdsIndexThreshold.
func BenchmarkTxnHolds(b *testing.B) {
	// A get-only set conflicts with nothing, so its mode needs no
	// mechanism and Acquire is free: the benchmark isolates Txn
	// bookkeeping.
	getSet := SymSetOf(SymOpOf("get", VarArg("k")))
	tbl := NewModeTable(mapSpec(), []SymSet{getSet}, TableOptions{Phi: NewPhi(4)})
	m := tbl.Set(getSet).Mode(1)
	for _, n := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("held=%d", n), func(b *testing.B) {
			sems := make([]*Semantic, n)
			for i := range sems {
				sems[i] = NewSemantic(tbl)
			}
			txn := NewTxn()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r, s := range sems {
					txn.Lock(s, m, r)
				}
				txn.UnlockAll()
				txn.Reset()
			}
		})
	}
}
