// Package rangestore is a range-sharded key-value store: the second
// workload of the hybrid optimistic/pessimistic experiments (the
// retired benchall -exp optimistic and -exp adaptive), the store behind
// the gated rangestore-scan workload of benchmark/, and the example in
// examples/rangestore. Keys [0, capacity) are partitioned into
// contiguous ranges, one shard — an adt.HashMap plus its own Semantic
// lock — per range. Point writes lock one shard's key mode; the pair
// write locks two shards in one fused LockBatch; the scan is the
// read-only section that wants the optimistic envelope, because
// pessimistically it must hold every shard's values() mode at once.
//
// The store doubles as its own consistency oracle: PutPair atomically
// inserts or removes the pair (k, partner(k)) in one section, so the
// total entry count is even in every serial state. A Scan that returns
// an odd count has therefore seen a torn pair write — exactly the
// anomaly version validation must rule out on the lock-free path.
//
// Like gossip's Ours router, this is a hand transcription of the plan
// a synthesized scan/put/pair program would produce: every section that
// locks runs under core.Atomically with its acquisitions flowing
// through core.Txn, and the optimistic reads — which hold nothing, so
// need no transaction — observe into a core.Snapshot on their own stack
// exactly the modes their fallbacks lock.
package rangestore

import (
	"math/bits"

	"repro/internal/adt"
	"repro/internal/adtspecs"
	"repro/internal/core"
)

// shard is one contiguous key range: the map and its semantic lock.
type shard struct {
	m   *adt.HashMap
	sem *core.Semantic
}

// Store is the range-sharded map.
type Store struct {
	shards   []shard
	capacity int
	width    int
	shift    int // log2(width) when width is a power of two, else -1

	writeRef core.SetRef // {put(k,*), remove(k)}
	getRef   core.SetRef // {get(k)}
	scanMode core.ModeID // {values()}
}

// New creates a store of nShards shards covering keys [0, capacity).
// capacity is rounded up to a multiple of nShards.
func New(nShards, capacity int) *Store {
	if nShards < 1 {
		nShards = 1
	}
	width := (capacity + nShards - 1) / nShards
	if width < 1 {
		width = 1
	}
	writeSet := core.SymSetOf(
		core.SymOpOf("put", core.VarArg("k"), core.Star()),
		core.SymOpOf("remove", core.VarArg("k")))
	getSet := core.SymSetOf(core.SymOpOf("get", core.VarArg("k")))
	scanSet := core.SymSetOf(core.SymOpOf("values"))
	tbl := core.NewModeTable(adtspecs.Map(), []core.SymSet{writeSet, getSet, scanSet},
		core.TableOptions{Phi: core.NewPhi(16)})

	shift := -1
	if width&(width-1) == 0 {
		shift = bits.TrailingZeros(uint(width))
	}
	s := &Store{
		capacity: width * nShards,
		width:    width,
		shift:    shift,
		writeRef: tbl.Set(writeSet),
		getRef:   tbl.Set(getSet),
		scanMode: tbl.Set(scanSet).Mode(),
	}
	s.shards = make([]shard, nShards)
	for i := range s.shards {
		s.shards[i] = shard{m: adt.NewHashMap(), sem: core.NewSemantic(tbl)}
	}
	return s
}

// Partner returns the key paired with k by PutPair.
func (s *Store) Partner(k int) int { return (k + s.capacity/2) % s.capacity }

// Sems returns every shard's semantic lock, for telemetry registration
// and quiescence checks.
func (s *Store) Sems() []*core.Semantic {
	out := make([]*core.Semantic, len(s.shards))
	for i := range s.shards {
		out[i] = s.shards[i].sem
	}
	return out
}

// shardOf maps any key — out-of-range and negative ones wrap into
// [0, capacity) — to the shard holding its range. The keys the workloads
// send are in range, so the common case is one compare and one shift.
func (s *Store) shardOf(k int) *shard {
	if uint(k) >= uint(s.capacity) {
		if k %= s.capacity; k < 0 {
			k += s.capacity
		}
	}
	if s.shift >= 0 {
		return &s.shards[k>>uint(s.shift)]
	}
	return &s.shards[k/s.width]
}

// Put stores v under k, pessimistically (a point write can never run
// lock-free: it mutates).
func (s *Store) Put(k int, v core.Value) {
	sh := s.shardOf(k)
	kv := core.Value(k) // boxed once, for the selector and the map
	core.Atomically(func(tx *core.Txn) {
		tx.Lock(sh.sem, s.writeRef.Mode1(kv), 0)
		sh.m.Put(kv, v)
	})
}

// PutPair toggles the pair (k, Partner(k)) in one atomic section: both
// present -> both removed, else both inserted. The two shards are
// acquired as one fused LockBatch — the all-or-nothing claim with a
// union waiter mask — so a concurrent pessimistic scan can never see
// one half of the toggle, and an optimistic scan that saw one half can
// never validate (the batch's acquisition bumps each shard's version
// counter, so a scan snapshot taken before the toggle cannot survive
// validation once the toggle's claim stood).
func (s *Store) PutPair(k int) {
	k2 := s.Partner(k)
	a, b := s.shardOf(k), s.shardOf(k2)
	kv, kv2 := core.Value(k), core.Value(k2)
	core.Atomically(func(tx *core.Txn) {
		tx.LockBatch(
			core.BatchLock{Sem: a.sem, Mode: s.writeRef.Mode1(kv), Rank: 0},
			core.BatchLock{Sem: b.sem, Mode: s.writeRef.Mode1(kv2), Rank: 0},
		)
		togglePair(a, b, kv, kv2)
	})
}

// togglePair is PutPair's body once both shards are held: both present
// -> both removed, else both inserted (each key bound to itself).
func togglePair(a, b *shard, k, k2 core.Value) {
	if a.m.Get(k) != nil {
		a.m.Remove(k)
		b.m.Remove(k2)
	} else {
		a.m.Put(k, k)
		b.m.Put(k2, k2)
	}
}

// Get returns the value under k via the optimistic fast path: observe
// the key's get mode, read, validate — nothing acquired, so no
// transaction. On a refusal or a failed validation it is the
// pessimistic point read.
func (s *Store) Get(k int) core.Value {
	sh := s.shardOf(k)
	kv := core.Value(k)
	var sn core.Snapshot
	if sn.Observe(sh.sem, s.getRef.Mode1(kv)) {
		if v := sh.m.Get(kv); sn.Validate() {
			return v
		}
	}
	return s.GetPessimistic(k)
}

// GetPessimistic is the point read under the ordinary prologue — the
// experiment's baseline.
func (s *Store) GetPessimistic(k int) core.Value {
	sh := s.shardOf(k)
	kv := core.Value(k)
	var v core.Value
	core.Atomically(func(tx *core.Txn) {
		tx.Lock(sh.sem, s.getRef.Mode1(kv), 0)
		v = sh.m.Get(kv)
	})
	return v
}

// Scan counts the store's entries via the optimistic fast path:
// observe every shard's values() mode, read every size lock-free, and
// validate. On a refusal or a failed validation it re-runs under the
// pessimistic whole-store batch. Because PutPair keeps the entry count
// even in every serial state, an odd return would prove a torn read
// escaped validation.
func (s *Store) Scan() int {
	if n, ok := s.scanOptimistic(); ok {
		return n
	}
	return s.ScanPessimistic()
}

func (s *Store) scanOptimistic() (int, bool) {
	var sn core.Snapshot
	for i := range s.shards {
		if !sn.Observe(s.shards[i].sem, s.scanMode) {
			return 0, false
		}
	}
	n := 0
	for i := range s.shards {
		n += s.shards[i].m.Size()
	}
	return n, sn.Validate()
}

// ScanPessimistic counts the entries under the whole-store LockBatch —
// the experiment's baseline scan.
func (s *Store) ScanPessimistic() int {
	var n int
	core.Atomically(func(tx *core.Txn) {
		n = s.scanLocked(tx)
	})
	return n
}

func (s *Store) scanLocked(tx *core.Txn) int {
	locks := make([]core.BatchLock, len(s.shards))
	for i := range s.shards {
		locks[i] = core.BatchLock{Sem: s.shards[i].sem, Mode: s.scanMode, Rank: 0}
	}
	tx.LockBatch(locks...)
	n := 0
	for i := range s.shards {
		n += s.shards[i].m.Size()
	}
	return n
}
