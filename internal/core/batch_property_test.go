package core

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBatchLockEquivalenceRandom is the fused-prologue property: for
// random batches over distinct instances, Txn.LockBatch leaves the
// transaction and the instances in exactly the state the equivalent
// sequence of Txn.Lock calls leaves them in — identical held counts,
// identical per-mode holder counts, and identical acquisition logs
// (modulo the instance-id renaming between the two replicas). The batch
// is handed over shuffled to exercise the internal (rank, id) sort.
func TestBatchLockEquivalenceRandom(t *testing.T) {
	tbl := mapTable(t, 8, TableOptions{})
	const nInst = 5
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(seed))

		// Two identically-shaped replicas of the instance universe: A is
		// locked with LockBatch, B with the unfused Lock sequence.
		semsA := make([]*Semantic, nInst)
		semsB := make([]*Semantic, nInst)
		for i := range semsA {
			semsA[i] = NewSemantic(tbl)
		}
		for i := range semsB {
			semsB[i] = NewSemantic(tbl)
		}
		ranks := make([]int, nInst) // non-decreasing, so id order agrees across replicas
		for i := 1; i < nInst; i++ {
			ranks[i] = ranks[i-1] + rng.Intn(2)
		}

		// Random batch: distinct instances, random modes, an occasional
		// nil entry (the guarded-variable case Lock also absorbs).
		type pick struct {
			inst int // -1 = nil instance
			mode ModeID
		}
		var picks []pick
		for _, i := range rng.Perm(nInst)[:1+rng.Intn(nInst)] {
			picks = append(picks, pick{inst: i, mode: keyMode(tbl, rng.Intn(16))})
		}
		if rng.Intn(3) == 0 {
			picks = append(picks, pick{inst: -1})
		}

		batch := make([]BatchLock, len(picks))
		for i, p := range picks {
			if p.inst >= 0 {
				batch[i] = BatchLock{Sem: semsA[p.inst], Mode: p.mode, Rank: ranks[p.inst]}
			}
		}
		txA := NewCheckedTxn()
		txA.LockBatch(batch...)

		// Reference: the same picks through Txn.Lock, pre-sorted the way
		// OS2PL requires (LockBatch sorts internally; Lock does not).
		ordered := append([]pick(nil), picks...)
		for i := 1; i < len(ordered); i++ {
			for j := i; j > 0; j-- {
				a, b := ordered[j], ordered[j-1]
				ra, rb := -1, -1
				var ia, ib uint64
				if a.inst >= 0 {
					ra, ia = ranks[a.inst], semsB[a.inst].ID()
				}
				if b.inst >= 0 {
					rb, ib = ranks[b.inst], semsB[b.inst].ID()
				}
				if ra < rb || (ra == rb && ia < ib) {
					ordered[j], ordered[j-1] = b, a
				} else {
					break
				}
			}
		}
		txB := NewCheckedTxn()
		for _, p := range ordered {
			if p.inst < 0 {
				txB.Lock(nil, 0, 0)
			} else {
				txB.Lock(semsB[p.inst], p.mode, ranks[p.inst])
			}
		}

		if txA.HeldCount() != txB.HeldCount() {
			t.Fatalf("seed %d: held %d (batch) != %d (sequence)", seed, txA.HeldCount(), txB.HeldCount())
		}
		for i := range semsA {
			for _, p := range picks {
				if p.inst < 0 {
					continue
				}
				if ha, hb := semsA[i].Holders(p.mode), semsB[i].Holders(p.mode); ha != hb {
					t.Fatalf("seed %d: inst %d mode %d holders %d (batch) != %d (sequence)", seed, i, p.mode, ha, hb)
				}
			}
		}
		logA, logB := txA.Acquisitions(), txB.Acquisitions()
		if len(logA) != len(logB) {
			t.Fatalf("seed %d: log length %d != %d", seed, len(logA), len(logB))
		}
		// Identical modulo the A→B instance renaming (ids differ between
		// replicas but creation order, and hence within-rank order, agrees).
		idMap := make(map[uint64]uint64, nInst)
		for i := range semsA {
			idMap[semsA[i].ID()] = semsB[i].ID()
		}
		for i := range logA {
			a, b := logA[i], logB[i]
			if a.Rank != b.Rank || a.Mode != b.Mode || idMap[a.ID] != b.ID {
				t.Fatalf("seed %d: log[%d] = %+v (batch) vs %+v (sequence)", seed, i, a, b)
			}
		}

		txA.UnlockAll()
		txB.UnlockAll()
		for i := range semsA {
			if semsA[i].OutstandingHolds() != 0 || semsB[i].OutstandingHolds() != 0 {
				t.Fatalf("seed %d: instance %d left holders after UnlockAll", seed, i)
			}
		}
	}
}

// TestBatchLockDuplicatesRandom is LOCAL_SET at mode granularity: a
// random batch that names some (instance, mode) pairs several times — a
// pipelined window addressing one member again and again — leaves the
// transaction and the instances exactly as its de-duplicated form does:
// one hold and one log entry per distinct pair, one holder per held
// mode, and nothing behind once UnlockAll has run.
func TestBatchLockDuplicatesRandom(t *testing.T) {
	tbl := mapTable(t, 8, TableOptions{})
	const nInst = 4
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Replica A takes the batch with duplicates, B without.
		semsA, semsB := make([]*Semantic, nInst), make([]*Semantic, nInst)
		for i := range semsA {
			semsA[i], semsB[i] = NewSemantic(tbl), NewSemantic(tbl)
		}
		var withDups, distinct []BatchLock
		for i := 0; i < nInst; i++ {
			// Up to three distinct key modes per instance; different
			// buckets commute, so they make a legal same-instance group.
			seen := map[ModeID]bool{}
			for _, k := range rng.Perm(8)[:rng.Intn(4)] {
				m := keyMode(tbl, k)
				if seen[m] {
					continue // two keys of one φ bucket
				}
				seen[m] = true
				distinct = append(distinct, BatchLock{Sem: semsB[i], Mode: m, Rank: i / 2})
				for c := 1 + rng.Intn(4); c > 0; c-- {
					withDups = append(withDups, BatchLock{Sem: semsA[i], Mode: m, Rank: i / 2})
				}
			}
		}
		rng.Shuffle(len(withDups), func(i, j int) { withDups[i], withDups[j] = withDups[j], withDups[i] })

		txA, txB := NewCheckedTxn(), NewCheckedTxn()
		txA.LockBatch(withDups...)
		txB.LockBatch(distinct...)
		if txA.HeldCount() != txB.HeldCount() || txA.HeldCount() != len(distinct) {
			t.Fatalf("seed %d: held %d with duplicates, %d without, %d distinct pairs",
				seed, txA.HeldCount(), txB.HeldCount(), len(distinct))
		}
		if la, lb := len(txA.Acquisitions()), len(txB.Acquisitions()); la != lb {
			t.Fatalf("seed %d: %d log entries with duplicates, %d without", seed, la, lb)
		}
		for i := range semsA {
			for k := 0; k < 8; k++ {
				m := keyMode(tbl, k)
				if ha, hb := semsA[i].Holders(m), semsB[i].Holders(m); ha != hb || ha > 1 {
					t.Fatalf("seed %d: inst %d mode %d: %d holders with duplicates, %d without", seed, i, m, ha, hb)
				}
			}
		}
		txA.UnlockAll()
		txB.UnlockAll()
		for i := range semsA {
			if err := semsA[i].CheckQuiesced(); err != nil {
				t.Fatalf("seed %d: instance %d after UnlockAll: %v", seed, i, err)
			}
		}
	}
}

// TestBatchLockWithinDuplicatesStall: the bounded contract is the same
// for a group that names its mode several times — a timed-out group
// leaves no claim and no recorded hold, the groups before it stay held
// for the epilogue, and everything quiesces after it.
func TestBatchLockWithinDuplicatesStall(t *testing.T) {
	tbl := mapTable(t, 1, TableOptions{}) // n=1: key modes conflict with size
	km, sm := keyMode(tbl, 7), sizeMode(tbl)
	first, blocked := NewSemantic(tbl), NewSemantic(tbl)
	blocked.Acquire(sm) // a foreign holder the second group conflicts with

	tx := NewTxn()
	err := tx.LockBatchWithin(2*time.Millisecond,
		BatchLock{Sem: blocked, Mode: km, Rank: 1},
		BatchLock{Sem: first, Mode: km, Rank: 0},
		BatchLock{Sem: blocked, Mode: km, Rank: 1},
		BatchLock{Sem: first, Mode: km, Rank: 0},
		BatchLock{Sem: blocked, Mode: km, Rank: 1},
	)
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("LockBatchWithin = %v, want a *StallError", err)
	}
	if tx.HeldCount() != 1 || !tx.Holds(first) || tx.Holds(blocked) {
		t.Fatalf("after the stall: held %d, holds(first)=%v holds(blocked)=%v; want the first group only",
			tx.HeldCount(), tx.Holds(first), tx.Holds(blocked))
	}
	if got := first.Holders(km); got != 1 {
		t.Errorf("first group's mode has %d holders, want 1", got)
	}
	if got := blocked.Holders(km); got != 0 {
		t.Errorf("timed-out group left %d claims", got)
	}
	tx.UnlockAll()
	blocked.Release(sm)
	for _, s := range []*Semantic{first, blocked} {
		if err := s.CheckQuiesced(); err != nil {
			t.Errorf("after UnlockAll: %v", err)
		}
	}
}

// TestAcquireBatchEquivalenceRandom: a multi-mode batched acquisition on
// ONE instance (the fused same-instance run) leaves exactly the holder
// counts the sequential Acquire calls leave, for random mode multisets.
func TestAcquireBatchEquivalenceRandom(t *testing.T) {
	tbl := mapTable(t, 8, TableOptions{})
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		modes := make([]ModeID, 1+rng.Intn(4))
		for i := range modes {
			if rng.Intn(4) == 0 {
				modes[i] = sizeMode(tbl)
			} else {
				modes[i] = keyMode(tbl, rng.Intn(16))
			}
		}
		// A mode multiset is only a valid single-instance batch when its
		// members commute pairwise (a fused prologue's modes come from
		// one transaction, which may not conflict with itself).
		ok := true
		for i := range modes {
			for j := i + 1; j < len(modes); j++ {
				if !tbl.Commute(modes[i], modes[j]) {
					ok = false
				}
			}
		}
		if !ok {
			continue
		}
		sa, sb := NewSemantic(tbl), NewSemantic(tbl)
		sa.AcquireBatch(modes...)
		for _, m := range modes {
			sb.Acquire(m)
		}
		for _, m := range modes {
			if ha, hb := sa.Holders(m), sb.Holders(m); ha != hb {
				t.Fatalf("seed %d: modes %v: holders(%d) %d (batch) != %d (sequence)", seed, modes, m, ha, hb)
			}
		}
		for _, m := range modes {
			sa.Release(m)
			sb.Release(m)
		}
		if sa.OutstandingHolds() != 0 || sb.OutstandingHolds() != 0 {
			t.Fatalf("seed %d: leftover holds after release", seed)
		}
	}
}

// TestBatchSelfConflictSameInstance: a fused run whose modes conflict
// pairwise must still succeed — the claims belong to one transaction, so
// the batch's own claims are not conflicts against itself (the threshold
// generalizes the single-mode "own slot ≤ 1" rule).
func TestBatchSelfConflictSameInstance(t *testing.T) {
	tbl := mapTable(t, 1, TableOptions{}) // n=1: key modes conflict with size
	km, sm := keyMode(tbl, 7), sizeMode(tbl)
	if tbl.Commute(km, sm) {
		t.Fatal("test premise: key and size modes must conflict")
	}
	s := NewSemantic(tbl)
	done := make(chan struct{})
	go func() {
		s.AcquireBatch(km, sm)
		s.Release(km)
		s.Release(sm)
		close(done)
	}()
	<-done
	if s.OutstandingHolds() != 0 {
		t.Error("leftover holds")
	}
}

// TestBatchLockRace: concurrent fused prologues provide mutual exclusion
// exactly as sequential locks do. Each goroutine batches a conflicting
// (exclusive) acquisition over two instances and mutates unsynchronized
// shared state; the race detector plus an occupancy counter catch any
// exclusion failure. Run with -race.
func TestBatchLockRace(t *testing.T) {
	tbl := mapTable(t, 1, TableOptions{})
	km, sm := keyMode(tbl, 3), sizeMode(tbl)
	a, b := NewSemantic(tbl), NewSemantic(tbl)
	var inside, violations atomic.Int32
	shared := 0 // unsynchronized on purpose: -race verifies the exclusion
	var wg sync.WaitGroup
	const workers, iters = 8, 400
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tx := NewTxn()
				// Both modes conflict with each other's class, so every
				// pair of these batches conflicts on both instances.
				if w%2 == 0 {
					tx.LockBatch(
						BatchLock{Sem: a, Mode: km, Rank: 0},
						BatchLock{Sem: b, Mode: sm, Rank: 1},
					)
				} else {
					tx.Lock(a, sm, 0)
					tx.Lock(b, km, 1)
				}
				if inside.Add(1) != 1 {
					violations.Add(1)
				}
				shared++
				inside.Add(-1)
				tx.UnlockAll()
			}
		}(w)
	}
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d mutual-exclusion violations between fused and sequential prologues", v)
	}
	if shared != workers*iters {
		t.Fatalf("shared = %d, want %d (lost updates)", shared, workers*iters)
	}
	if a.OutstandingHolds() != 0 || b.OutstandingHolds() != 0 {
		t.Error("leftover holds")
	}
}

// TestBatchLockSkipsHeldAndNil: LockBatch absorbs nil constituents and
// instances the transaction already holds, exactly as Lock does (Fig 5's
// LOCAL_SET test applies per instance, before the batched acquisition).
func TestBatchLockSkipsHeldAndNil(t *testing.T) {
	tbl, km, sm := txnFixture(t)
	s1, s2 := NewSemantic(tbl), NewSemantic(tbl)
	tx := NewCheckedTxn()
	tx.Lock(s1, km, 0)
	tx.LockBatch(
		BatchLock{Sem: nil},
		BatchLock{Sem: s1, Mode: sm, Rank: 0}, // already held: skipped whole
		BatchLock{Sem: s2, Mode: km, Rank: 1},
	)
	if got := tx.HeldCount(); got != 2 {
		t.Errorf("held = %d, want 2", got)
	}
	if got := s1.Holders(sm); got != 0 {
		t.Errorf("held instance re-acquired in batch: holders(sm) = %d", got)
	}
	tx.UnlockAll()
}
