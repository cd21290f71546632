package core

import (
	"fmt"
	"sort"
	"time"
)

// Txn is a transaction: the execution of an atomic section (§2.1). It
// tracks the ADT instances it has locked (the paper's LOCAL_SET, §3.1),
// enforces the two-phase rule of S2PL (§2.3: no lock after any unlock),
// and — when checking is enabled — asserts the OS2PL ordering rule and
// that every standard operation is covered by a held mode.
//
// A Txn is used by one goroutine at a time and may be Reset and reused.
type Txn struct {
	held       []heldLock
	heldIdx    map[*Semantic]struct{} // membership index; built past holdsIndexThreshold
	unlockedAt int                    // count of releases performed; >0 bars further locking
	checked    bool

	// order-tracking for the checked OS2PL assertion
	lastRank int
	lastID   uint64
	haveLast bool

	// acquisition log, recorded by checked transactions so harnesses can
	// cross-check the runtime order against the static verifier.
	log []Acquisition

	// batchModes is LockBatch's scratch for the distinct modes of one
	// same-instance group; it is reused across calls so fused prologues
	// allocate nothing.
	batchModes []ModeID

	// snap is the version vector of the optimistic envelope
	// (TryOptimistic): the same Snapshot a transaction-free read declares
	// on its stack. Reset clears it — a pooled transaction must never
	// validate against a stale version vector — and TryOptimistic
	// additionally empties it on entry as defense in depth. optActive
	// marks execution inside an optimistic body, where Observe records
	// instead of acquiring and Assert accepts coverage by observed modes.
	optActive bool
	snap      Snapshot
}

// Acquisition is one recorded lock acquisition of a checked transaction:
// the instance's class rank, its unique id, and the mode taken.
type Acquisition struct {
	Rank int
	ID   uint64
	Mode ModeID
}

type heldLock struct {
	sem  *Semantic
	mode ModeID
	rank int
}

// NewTxn begins a transaction (the prologue of §3.1: LOCAL_SET := ∅).
func NewTxn() *Txn { return &Txn{} }

// NewCheckedTxn begins a transaction with protocol checking: violations
// of S2PL, OS2PL ordering, or operation coverage panic with a diagnostic.
// Used by tests and race harnesses.
func NewCheckedTxn() *Txn { return &Txn{checked: true} }

// resetShrinkCap is the backing-array capacity past which Reset drops
// the held/log arrays instead of truncating them. Pooled transactions
// otherwise pin their high-water memory forever: one pathologically
// lock-heavy section would leave every reuse carrying its peak backing
// array. 64 comfortably covers the typical handful of instances per
// section (holdsIndexThreshold is 16) while bounding pooled retention.
const resetShrinkCap = 64

// Reset clears the transaction for reuse. It panics if locks are still
// held (every transaction must end with UnlockAll).
func (t *Txn) Reset() {
	if len(t.held) != 0 {
		panic("core: Txn.Reset with locks still held")
	}
	t.unlockedAt = 0
	t.haveLast = false
	t.heldIdx = nil
	if cap(t.held) > resetShrinkCap {
		t.held = nil
	}
	if cap(t.log) > resetShrinkCap {
		t.log = nil
	} else {
		t.log = t.log[:0]
	}
	// Clear the optimistic snapshot state: a pooled transaction reused
	// by a different section must never validate against a stale version
	// vector, and a body that panicked mid-TryOptimistic (unwound by
	// Atomically) left optActive set.
	t.optActive = false
	t.snap.n = 0
	if cap(t.snap.more) > resetShrinkCap {
		t.snap.more = nil
	}
}

// holdsIndexThreshold is the held-lock count past which Txn switches its
// LOCAL_SET membership test from the linear scan (cache-friendly, no
// allocation — wins for the typical handful of instances) to a map
// index. Without the index, lock-heavy transactions pay O(held²) in
// accumulated Holds scans, since Lock calls Holds on every acquisition.
const holdsIndexThreshold = 16

// Holds reports whether the transaction already holds a lock on the
// instance (the LOCAL_SET membership test of the LV macro, Fig 5).
func (t *Txn) Holds(s *Semantic) bool {
	if t.heldIdx != nil {
		_, ok := t.heldIdx[s]
		return ok
	}
	for i := range t.held {
		if t.held[i].sem == s {
			return true
		}
	}
	return false
}

// preLock runs the pre-acquisition checks shared by every Lock variant:
// the LOCAL_SET membership test (nothing to do when the
// instance is nil or already held), the two-phase rule, and — for
// checked transactions — the OS2PL ordering assertion. It reports
// whether the caller should proceed to acquire. The panic formatting
// lives in orderPanic so this stays within the inlining budget and
// Lock's hot path remains call-free up to the acquisition.
func (t *Txn) preLock(s *Semantic, rank int) bool {
	if s == nil || t.Holds(s) {
		return false
	}
	if t.unlockedAt > 0 {
		panic("core: S2PL violation: lock after unlock in the same transaction")
	}
	if t.checked && t.haveLast && (rank < t.lastRank || (rank == t.lastRank && s.id <= t.lastID)) {
		t.orderPanic(s, rank)
	}
	return true
}

func (t *Txn) orderPanic(s *Semantic, rank int) {
	panic(fmt.Sprintf(
		"core: OS2PL violation: locking (rank=%d,id=%d) after (rank=%d,id=%d)",
		rank, s.id, t.lastRank, t.lastID))
}

// Lock acquires mode m on instance s unless the transaction already
// holds a lock on s — exactly the LV macro of Fig 5 generalized to a
// specific mode. Passing a nil instance is a no-op (the null check of
// Fig 5). The rank is the instance's position in the static lock order
// (<ts over equivalence classes, §3.3); the checked variant asserts that
// acquisitions follow (rank, unique-id) lexicographic order.
func (t *Txn) Lock(s *Semantic, m ModeID, rank int) {
	if !t.preLock(s, rank) {
		return
	}
	// The transaction's log rides along so a blocked acquisition exposes
	// it to ScanStalls (nil for unchecked transactions).
	s.acquire(m, t.log)
	t.recordHeld(s, m, rank)
}

// LockWithin is Lock with bounded patience: it waits at most patience
// for the acquisition, returning nil once the lock is held (or was
// already held, or s is nil) and a *StallError naming the conflicting
// holder slots if the wait timed out. A timed-out LockWithin leaves the
// transaction exactly as it was — nothing acquired, nothing recorded —
// so the caller may retry, release and restart, or surface the error.
func (t *Txn) LockWithin(s *Semantic, m ModeID, rank int, patience time.Duration) error {
	if !t.preLock(s, rank) {
		return nil
	}
	if err := s.acquireWithin(m, patience, t.log); err != nil {
		return err
	}
	t.recordHeld(s, m, rank)
	return nil
}

// BatchLock is one constituent of a fused prologue acquisition: the
// instance, the mode to take on it, and the instance's class rank in
// the static lock order.
type BatchLock struct {
	Sem  *Semantic
	Mode ModeID
	Rank int
}

// LockBatch acquires every constituent lock of a fused prologue in one
// call. Acquisition follows the OS2PL (rank, unique-id) order
// regardless of argument order: the entries are sorted in place by
// (Rank, instance id), so a synthesized prologue whose same-rank
// instances are only known at run time (the LV2 pattern of Fig 12) can
// pass them unordered. Nil instances and instances already held are
// skipped, exactly as in Lock.
//
// Consecutive entries naming the same instance are acquired as one
// batched acquisition (Semantic.AcquireBatch) of their distinct modes —
// a mode named twice on one instance is held once: all the counter
// slots are claimed in one pass, and a conflict registers a single
// waiter with the union conflict mask instead of one waiter per mode.
// Distinct instances still acquire one at a time — blocking
// mid-prologue with earlier locks held is precisely what OS2PL makes
// safe.
func (t *Txn) LockBatch(locks ...BatchLock) {
	// Forever cannot time out: there is no error to handle.
	_ = t.lockBatch(locks, Forever)
}

// LockBatchWithin is LockBatch with bounded patience, applied to each
// instance group in turn: it returns nil once every constituent is
// held, or the *StallError of the first group whose wait timed out.
// That group leaves no claim, no registered waiter and no recorded
// hold; the groups acquired before it stay held for the section's
// epilogue, exactly as the locks taken before a timed-out LockWithin do.
func (t *Txn) LockBatchWithin(patience time.Duration, locks ...BatchLock) error {
	return t.lockBatch(locks, patience)
}

func (t *Txn) lockBatch(locks []BatchLock, patience time.Duration) error {
	// Insertion sort by (rank, id): prologue batches are small (a
	// handful of entries), and the slice is typically already sorted —
	// codegen emits rank groups in ascending rank order.
	for i := 1; i < len(locks); i++ {
		for j := i; j > 0 && batchLess(&locks[j], &locks[j-1]); j-- {
			locks[j], locks[j-1] = locks[j-1], locks[j]
		}
	}
	i := 0
	for i < len(locks) {
		s := locks[i].Sem
		if s == nil {
			i++
			continue
		}
		j := i + 1
		for j < len(locks) && locks[j].Sem == s {
			j++
		}
		if !t.preLock(s, locks[i].Rank) {
			i = j
			continue
		}
		// LOCAL_SET at mode granularity: a group that names one mode
		// several times — a pipelined window addressing one member —
		// claims, records and releases it once.
		t.batchModes = t.batchModes[:0]
	gather:
		for k := i; k < j; k++ {
			for _, m := range t.batchModes {
				if m == locks[k].Mode {
					continue gather
				}
			}
			t.batchModes = append(t.batchModes, locks[k].Mode)
		}
		var err error
		if len(t.batchModes) == 1 {
			err = s.acquireWithin(t.batchModes[0], patience, t.log)
		} else {
			// Several modes destined for the same instance: claim them
			// all in one pass over the mechanism's counter arrays.
			err = s.acquireBatch(t.batchModes, patience, t.log)
		}
		if err != nil {
			return err
		}
		for _, m := range t.batchModes {
			t.recordHeld(s, m, locks[i].Rank)
		}
		i = j
	}
	return nil
}

// batchLess orders batch entries by (rank, instance id); nil instances
// sort first within their rank and are skipped during acquisition.
func batchLess(a, b *BatchLock) bool {
	if a.Rank != b.Rank {
		return a.Rank < b.Rank
	}
	var ai, bi uint64
	if a.Sem != nil {
		ai = a.Sem.id
	}
	if b.Sem != nil {
		bi = b.Sem.id
	}
	return ai < bi
}

// recordHeld performs the post-acquisition bookkeeping shared by Lock
// and LockWithin: LOCAL_SET membership, the order-tracking state, and
// the checked acquisition log.
func (t *Txn) recordHeld(s *Semantic, m ModeID, rank int) {
	t.held = append(t.held, heldLock{sem: s, mode: m, rank: rank})
	if t.heldIdx != nil {
		t.heldIdx[s] = struct{}{}
	} else if len(t.held) > holdsIndexThreshold {
		t.heldIdx = make(map[*Semantic]struct{}, 2*len(t.held))
		for i := range t.held {
			t.heldIdx[t.held[i].sem] = struct{}{}
		}
	}
	t.lastRank, t.lastID, t.haveLast = rank, s.id, true
	if t.checked {
		t.log = append(t.log, Acquisition{Rank: rank, ID: s.id, Mode: m})
	}
}

// LockOrdered acquires the same mode on several same-rank instances in
// unique-id order — the LV2 pattern of Fig 12 generalized from two
// variables to any number. Nil instances are skipped.
func (t *Txn) LockOrdered(rank int, m ModeID, ss ...*Semantic) {
	switch len(ss) {
	case 0:
		return
	case 1:
		t.Lock(ss[0], m, rank)
		return
	case 2:
		a, b := ss[0], ss[1]
		if a != nil && b != nil && b.id < a.id {
			a, b = b, a
		}
		if a == nil {
			a, b = b, nil
		}
		t.Lock(a, m, rank)
		t.Lock(b, m, rank)
		return
	}
	sorted := make([]*Semantic, 0, len(ss))
	for _, s := range ss {
		if s != nil {
			sorted = append(sorted, s)
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].id < sorted[j].id })
	for _, s := range sorted {
		t.Lock(s, m, rank)
	}
}

// Observe is Snapshot.Observe on the transaction's embedded snapshot,
// valid only inside a TryOptimistic body: it records instead of
// acquiring, and false means the body should give up and let
// TryOptimistic fail over to the pessimistic prologue. rank is accepted
// so a call site reads like the Lock it stands for; observation
// acquires nothing, so the OS2PL order does not constrain it.
func (t *Txn) Observe(s *Semantic, m ModeID, rank int) bool {
	if !t.optActive {
		panic("core: Txn.Observe outside TryOptimistic")
	}
	//semlockvet:ignore occpure -- the envelope's forwarder: TryOptimistic, which set optActive, validates
	return t.snap.Observe(s, m)
}

// TryOptimistic runs body lock-free: body calls Observe where the
// pessimistic section would Lock, performs its (read-only) operations,
// and returns false to give up early — typically when an Observe is
// refused. TryOptimistic then validates every observation and reports
// whether the optimistic execution committed; on false the caller must
// discard the body's results and re-run the section through the
// pessimistic prologue. The body must not acquire any lock and must
// not mutate shared ADT state — the synthesizer only emits optimistic
// envelopes for sections it certified read-only, and internal/verify
// re-proves both properties on every emitted ir.Optimistic node.
//
// This is the entry for a read that is already inside a transaction —
// a checked or hook-buffered interpreter run, a resilience policy's
// section. A section that is nothing but the read declares a Snapshot
// on its stack and needs no transaction at all.
//
// A panic inside body unwinds through TryOptimistic without cleanup;
// the enclosing Atomically epilogue and Reset restore the transaction's
// optimistic state before any reuse.
func (t *Txn) TryOptimistic(body func(*Txn) bool) bool {
	if t.optActive {
		panic("core: nested TryOptimistic")
	}
	t.snap.n = 0
	t.optActive = true
	ok := body(t)
	t.optActive = false
	if !ok {
		t.snap.n = 0
		return false
	}
	return t.snap.Validate()
}

// UnlockInstance releases all modes held on instance s — the early lock
// release of Appendix A ("if(x!=null) x.unlockAll()" moved before the end
// of the section). A batched acquisition may have taken several modes on
// one instance; every one of them is released. After the first release
// the transaction may not lock again (two-phase rule).
func (t *Txn) UnlockInstance(s *Semantic) {
	if s == nil {
		return
	}
	released := false
	for i := 0; i < len(t.held); i++ {
		if t.held[i].sem == s {
			s.Release(t.held[i].mode)
			t.held = append(t.held[:i], t.held[i+1:]...)
			t.unlockedAt++
			released = true
			i--
		}
	}
	if released {
		delete(t.heldIdx, s)
	}
}

// UnlockAll releases every lock the transaction holds — the epilogue of
// §3.1. It is idempotent.
func (t *Txn) UnlockAll() {
	for i := len(t.held) - 1; i >= 0; i-- {
		h := t.held[i]
		h.sem.Release(h.mode)
		t.unlockedAt++
	}
	t.held = t.held[:0]
	t.heldIdx = nil
}

// HeldCount returns how many instance locks the transaction holds.
func (t *Txn) HeldCount() int { return len(t.held) }

// Assert verifies that a standard operation op on instance s is covered
// by a mode this transaction holds on s — the S2PL rule "t invokes a
// standard operation p of A only if t holds a lock on p of A" (§2.3).
// It is a no-op for unchecked transactions. Instrumented ADTs call this
// on every standard operation.
func (t *Txn) Assert(s *Semantic, op Op) {
	if !t.checked {
		return
	}
	// Inside an optimistic body nothing is held; coverage comes from the
	// observed modes instead — the body runs exactly the operations the
	// pessimistic section would, so each must be covered by the mode the
	// section would have locked.
	if t.optActive {
		if e := t.snap.find(s); e != nil && s.table.CoversOp(e.mode, op) {
			return
		}
		panic(fmt.Sprintf(
			"core: optimistic violation: operation %s on instance (id=%d) not covered by any observed mode", op, s.id))
	}
	// A batched acquisition may leave several held modes on one
	// instance; the operation is covered if any of them covers it.
	var last ModeID
	found := false
	for i := range t.held {
		if t.held[i].sem != s {
			continue
		}
		if s.table.CoversOp(t.held[i].mode, op) {
			return
		}
		last, found = t.held[i].mode, true
	}
	if found {
		panic(fmt.Sprintf(
			"core: S2PL violation: operation %s not covered by held mode %s",
			op, s.table.Mode(last)))
	}
	panic(fmt.Sprintf("core: S2PL violation: operation %s on unlocked instance (id=%d)", op, s.id))
}

// Checked reports whether protocol checking is enabled.
func (t *Txn) Checked() bool { return t.checked }

// Acquisitions returns the lock acquisitions the transaction performed
// since it was created or Reset, in order. Only checked transactions
// record acquisitions; for unchecked transactions the result is nil.
// The returned slice is valid until the next Reset.
func (t *Txn) Acquisitions() []Acquisition { return t.log }
