package core

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/padded"
)

// instanceIDs hands out unique identifiers for ADT instances; the ids
// realize the paper's unique(x) used for dynamic lock ordering within an
// equivalence class (Fig 12) and for the OS2PL order on instances.
var instanceIDs atomic.Uint64

// LockStats are cumulative acquisition statistics of one instance,
// summed over its mechanisms: FastPath counts acquisitions that
// succeeded on the optimistic counter scan (Fig 20 lines 3–4), Slow
// counts acquisitions that fell back to the internal lock, and Waits
// counts the times an acquirer actually slept on a conflict.
type LockStats struct {
	FastPath uint64
	Slow     uint64
	Waits    uint64
	// Batches counts batched acquisitions — one per mechanism group of
	// an AcquireBatch call, already included in FastPath/Slow, so
	// FastPath+Slow-Batches recovers the single-mode acquisition count.
	Batches uint64
	// Stalls counts bounded acquisitions (AcquireWithin, LockBatchWithin)
	// that exhausted their patience and returned a StallError.
	Stalls uint64
	// WaitNanos is the cumulative measured blocking time of slow-path
	// waiters that settled while SetWaitTiming(true) was in effect. Every
	// waiter carries its park time, so each contribution is a whole
	// measured wait, never a bound; with timing off it stays put.
	WaitNanos int64
	// OptimisticHits counts optimistic reads (a Snapshot, bare in the
	// shipped transaction-free reads or embedded in Txn.TryOptimistic)
	// whose end-of-section validation on this instance succeeded;
	// OptimisticRetries counts validations that failed here — a
	// conflicting mode was acquired inside the read window — discarding
	// a completed body and forcing the section to re-run through the
	// pessimistic prologue. OptimisticRefusals counts observations
	// turned away before any body ran: a conflicting holder was visible
	// at Observe time. A refusal wastes no work, so it is not a retry.
	// A read of one instance lands in exactly one of the three, unless
	// its body panics before Validate.
	OptimisticHits     uint64
	OptimisticRetries  uint64
	OptimisticRefusals uint64
}

// waitSampling enables the accumulation of LockStats.WaitNanos. Off by
// default: only telemetry consumers read it. SetWaitTiming
// (internal/core/stall.go) flips it.
var waitSampling atomic.Bool

// Semantic is the per-ADT-instance semantic lock: the realization of the
// synchronization API of §2.2 (lock / unlockAll) for one ADT instance.
// It holds one mechanism per partition of the class's mode table (§5.2).
//
// A Semantic guarantees: no two transactions concurrently hold modes a
// and b with F_c(a,b) = false. Acquire blocks until that invariant can be
// preserved. Deadlock-freedom is the transaction layer's responsibility
// (OS2PL ordering); a single Acquire never blocks on a mode held by its
// own transaction because transactions never lock the same instance
// twice (LOCAL_SET, §3.1).
type Semantic struct {
	table *ModeTable
	mechs []mechV2
	id    uint64

	// disableFastPath forces every acquisition through the internal
	// lock, skipping the optimistic counter scan of Fig 20 lines 3–4 —
	// ablation A4.
	disableFastPath bool

	// Optimistic-read outcome counters (a Snapshot's Observe and
	// Validate, bare or inside Txn.TryOptimistic), reported in
	// LockStats and read by nothing else. Padded: they sit on the
	// section hot path of read-mostly workloads.
	optHits    padded.Uint64
	optRetries padded.Uint64
	optRefused padded.Uint64 // observe-time turn-aways
}

// NewSemantic creates the semantic lock for one ADT instance of the class
// compiled into table.
func NewSemantic(table *ModeTable) *Semantic {
	s := &Semantic{
		table: table,
		mechs: make([]mechV2, table.NumMechanisms()),
		id:    instanceIDs.Add(1),
	}
	for i := range s.mechs {
		s.mechs[i].init(table.partSizes[i], table.summaryOn[i])
	}
	return s
}

// Table returns the mode table the lock was built from.
func (s *Semantic) Table() *ModeTable { return s.table }

// ID returns the instance's unique identifier (the paper's unique(x)).
func (s *Semantic) ID() uint64 { return s.id }

// Forever is the patience of a blocking acquisition: the acquisition
// core arms no timer for it, so the call can only return holding the
// lock. Acquire, AcquireBatch, Txn.Lock and
// Txn.LockBatch are the Forever case of the bounded entry points.
const Forever = time.Duration(math.MaxInt64)

// Acquire blocks until the transaction may hold mode m, then records one
// holder of m. Callers use Txn.Lock rather than calling this directly.
func (s *Semantic) Acquire(m ModeID) { s.acquire(m, nil) }

// acquire is Acquire carrying the acquirer's transaction log, exposed to
// ScanStalls while the acquisition is parked (nil for direct
// calls and unchecked transactions). Txn.Lock routes here.
func (s *Semantic) acquire(m ModeID, log []Acquisition) {
	p := s.table.part[m]
	if p < 0 {
		return // mode conflicts with nothing; no mechanism needed
	}
	// The successful first attempt — the overwhelmingly common case — is
	// straight-lined here so it runs one call deep (tryAcquire); retries
	// and blocking live in acquireSlow.
	mech := &s.mechs[p]
	c := &s.table.masks[m]
	if !s.disableFastPath && mech.tryAcquire(c) {
		mech.fastPath.Add(1)
		return
	}
	// Forever cannot fail: there is no error to handle.
	_ = s.acquireScan(p, c, Forever, log, m)
}

// acquireWithin is acquire for the bounded entry points (stall.go,
// Txn.LockWithin, Txn.LockBatchWithin): the same first attempt, then
// the same core with the caller's patience. The
// first attempt is written out twice because folding acquire into this
// function costs the blocking fast path two more arguments kept live
// across tryAcquire and an error return — about 3 ns of a 39 ns
// acquire/release cycle when measured.
func (s *Semantic) acquireWithin(m ModeID, patience time.Duration, log []Acquisition) error {
	p := s.table.part[m]
	if p < 0 {
		return nil
	}
	mech := &s.mechs[p]
	c := &s.table.masks[m]
	if !s.disableFastPath && mech.tryAcquire(c) {
		mech.fastPath.Add(1)
		return nil
	}
	return s.acquireScan(p, c, patience, log, m)
}

// acquireScan hands a scan — one mode's or a batch's — whose first
// attempt failed (or was skipped, disableFastPath) to its mechanism's
// acquisition core and turns the outcome into the bounded-acquisition
// error contract. ms names the scan's modes for the stall report.
func (s *Semantic) acquireScan(p int, c *maskInfo, patience time.Duration, log []Acquisition, ms ...ModeID) error {
	var start time.Time
	if patience != Forever {
		start = time.Now() // only a stall reports Waited, and Forever cannot stall
	}
	mech := &s.mechs[p]
	holders, out := mech.acquireSlow(c, !s.disableFastPath, patience, log)
	if out == acqOK {
		return nil
	}
	mech.stalls.Add(1)
	return s.stallError(ms, p, holders, time.Since(start), log)
}

// TryAcquire attempts to acquire mode m without blocking; it reports
// whether the acquisition succeeded.
func (s *Semantic) TryAcquire(m ModeID) bool {
	p := s.table.part[m]
	if p < 0 {
		return true
	}
	return s.mechs[p].tryAcquire(&s.table.masks[m])
}

// Release undoes one Acquire of mode m.
func (s *Semantic) Release(m ModeID) {
	p := s.table.part[m]
	if p < 0 {
		return
	}
	// Spelled out instead of calling retreat+wake: both inline here, so
	// an uncontended release (no registered waiter on the slot) makes no
	// calls at all — one atomic RMW and one atomic load.
	//
	// Release does NOT touch the optimistic version counter; the bump
	// happens on acquire (see mechV2.version). A release inside a read
	// window needs no signal of its own: either the releaser held the
	// mode at the reader's observation scan (the scan saw its counter
	// and the observation failed), or it acquired after the reader's
	// version snapshot (its acquire-time bump already invalidates the
	// snapshot). A writer that acquired AND released entirely before the
	// observation simply serialized ahead of the reader — its effects
	// are fully visible, which is exactly a consistent outcome.
	mech := &s.mechs[p]
	slot := int32(s.table.localIdx[m])
	mech.retreat(slot)
	if mech.waitMask[slot>>6].Load()&(1<<(uint(slot)&63)) != 0 {
		mech.wakeSlow(slot)
	}
}

// AcquireBatch acquires several modes on the instance in one pass — the
// fused-prologue acquisition. Within each mechanism the batch claims
// every constituent's counter slot before scanning the union of their
// conflict masks once, and a conflict parks a single waiter registered
// with the union mask instead of one waiter per mode. Modes falling in
// different mechanisms commute pairwise by construction (§5.2), so the
// mechanisms are processed sequentially without deadlock risk. One
// batched acquisition counts once in LockStats regardless of the number
// of constituent modes. Callers use Txn.LockBatch rather than calling
// this directly.
func (s *Semantic) AcquireBatch(ms ...ModeID) {
	// Forever cannot fail: there is no error to handle.
	_ = s.acquireBatch(ms, Forever, nil)
}

// acquireBatch is AcquireBatch with the patience and transaction log of
// acquireWithin. A mechanism group that times out releases the groups
// of ms acquired before it, so a failed call holds nothing on the
// instance.
func (s *Semantic) acquireBatch(ms []ModeID, patience time.Duration, log []Acquisition) error {
	switch len(ms) {
	case 0:
		return nil
	case 1:
		return s.acquireWithin(ms[0], patience, log)
	}
	// Single-mechanism batches — the shape fused prologues produce,
	// since one instance's modes almost always share a partition — skip
	// the grouping scratch. The optimistic pre-pass claims mode by mode
	// exactly as the unfused prologue would, so a conflict-free batch
	// costs no more than the sequential claims it replaces; a failed
	// claim undoes the earlier ones (the pre-pass never blocks while
	// holding partial claims, so two opposed batches cannot deadlock
	// here) and falls back to the one-pass batch machinery, whose
	// per-slot thresholds also self-permit intra-batch conflicts the
	// per-mode claims cannot.
	p0 := s.table.part[ms[0]]
	samePart := p0 >= 0
	for _, m := range ms[1:] {
		if s.table.part[m] != p0 {
			samePart = false
			break
		}
	}
	if samePart {
		mech := &s.mechs[p0]
		if !s.disableFastPath {
			k := 0
			ok := true
			for ; k < len(ms); k++ {
				if !mech.tryAcquire(&s.table.masks[ms[k]]) {
					ok = false
					break
				}
			}
			if ok {
				// One batched acquisition counts once (the documented
				// LockStats contract), exactly as acquireMechBatch's
				// first attempt below counts once — not once per
				// constituent mode.
				mech.batches.Add(1)
				mech.fastPath.Add(1)
				return nil
			}
			for j := 0; j < k; j++ {
				s.Release(ms[j])
			}
		}
		sc := batchScratchPool.Get().(*batchScratch)
		sc.modes = append(sc.modes[:0], ms...)
		err := s.acquireMechBatch(p0, sc, patience, log)
		batchScratchPool.Put(sc)
		return err
	}
	sc := batchScratchPool.Get().(*batchScratch)
	err := s.acquireGroups(ms, sc, patience, log)
	batchScratchPool.Put(sc)
	return err
}

// acquireGroups acquires a batch spanning several mechanisms, one
// mechanism group at a time in ascending mechanism index — whatever
// order ms names them in. A group may park while the earlier groups
// stay held, so every batch on an instance must meet the mechanisms in
// one order: were they taken in argument order, two batches naming the
// same two groups oppositely, with conflicting modes, would each hold
// the group the other waits for.
func (s *Semantic) acquireGroups(ms []ModeID, sc *batchScratch, patience time.Duration, log []Acquisition) error {
	part := s.table.part
	for last := -1; ; {
		// The lowest mechanism above last that one of ms lives in. Modes
		// with part < 0 conflict with nothing and are never selected.
		p := -1
		for _, m := range ms {
			if pm := part[m]; pm > last && (p < 0 || pm < p) {
				p = pm
			}
		}
		if p < 0 {
			return nil
		}
		sc.modes = sc.modes[:0]
		for _, m := range ms {
			if part[m] == p {
				sc.modes = append(sc.modes, m)
			}
		}
		var err error
		if len(sc.modes) == 1 {
			err = s.acquireWithin(sc.modes[0], patience, log)
		} else {
			err = s.acquireMechBatch(p, sc, patience, log)
		}
		if err != nil {
			// Give back the groups acquired before this one.
			for _, m := range ms {
				if pm := part[m]; pm >= 0 && pm < p {
					s.Release(m)
				}
			}
			return err
		}
		last = p
	}
}

// batchScratch carries the per-call scratch of AcquireBatch: the modes
// gathered per mechanism and the batch's scan. Pooled so fused
// prologues allocate nothing in steady state.
type batchScratch struct {
	modes []ModeID
	b     maskInfo
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// acquireMechBatch fills the pooled scan from one mechanism's group of
// modes and drives it through the same ladder as a single mode: one
// first attempt, then the acquisition core.
func (s *Semantic) acquireMechBatch(p int, sc *batchScratch, patience time.Duration, log []Acquisition) error {
	mech := &s.mechs[p]
	mech.batches.Add(1)
	b := &sc.b
	*b = maskInfo{slots: b.slots[:0], refs: b.refs[:0], words: b.words[:0]}
	for _, m := range sc.modes {
		c := &s.table.masks[m]
		b.slots = append(b.slots, c.selfSlot)
		b.mergeWords(c.words)
		b.bump = b.bump || c.bump
		for _, r := range c.refs {
			b.addRef(r.slot)
		}
	}
	// Bake the thresholds: a slot the batch itself claims k times blocks
	// only past k holders, and a word is cold while its summary does not
	// exceed the batch's own claims in it. This generalizes the
	// single-mode self-slot threshold of 1, and makes intra-batch
	// conflicts self-permitting — they are one transaction's own modes,
	// and the no-two-transactions invariant says nothing about modes
	// held by the same transaction.
	for i := range b.refs {
		b.refs[i].threshold = b.ownClaims(int32(b.refs[i].slot))
	}
	for i := range b.words {
		b.words[i].own = b.ownClaimsInWord(b.words[i].w)
	}
	if !s.disableFastPath && mech.tryScan(b) {
		mech.fastPath.Add(1)
		return nil
	}
	return s.acquireScan(p, b, patience, log, sc.modes...)
}

// Stats returns the instance's cumulative acquisition statistics, summed
// over its mechanisms.
func (s *Semantic) Stats() LockStats {
	var out LockStats
	for i := range s.mechs {
		out.FastPath += s.mechs[i].fastPath.Load()
		out.Slow += s.mechs[i].slow.Load()
		out.Waits += s.mechs[i].waits.Load()
		out.Batches += s.mechs[i].batches.Load()
		out.Stalls += s.mechs[i].stalls.Load()
		out.WaitNanos += s.mechs[i].waitNanos.Load()
	}
	out.OptimisticHits = s.optHits.Load()
	out.OptimisticRetries = s.optRetries.Load()
	out.OptimisticRefusals = s.optRefused.Load()
	return out
}

// ---------------------------------------------------------------------
// Optimistic read validation (Snapshot, bare or in Txn.TryOptimistic)
// ---------------------------------------------------------------------

// observeMode begins one optimistic observation of mode m on the
// instance: it snapshots the version counter of m's mechanism and then
// verifies that no conflicting mode currently has a holder. The order
// is load-bearing — version FIRST, holders SECOND. Every conflicting
// acquirer then lands in exactly one of three cases:
//
//  1. bumped before our snapshot, still holding at our scan — the scan
//     sees its counter and the observation fails;
//  2. bumped before our snapshot, released before our scan — its whole
//     critical section finished before any of our reads, so it is a
//     serialized predecessor, not a conflict;
//  3. claimed after our scan — its bump lands after our snapshot and
//     validateMode's compare fails.
//
// Loading the version AFTER the scan would open a hole: a writer could
// claim and bump between the two, hold through our reads, and have its
// bump absorbed into the snapshot — invisible to scan and compare
// alike. A false result means a conflicting holder is visible right
// now (the section would have blocked); the caller falls back to the
// pessimistic prologue.
func (s *Semantic) observeMode(m ModeID) (uint64, bool) {
	p := s.table.part[m]
	if p < 0 {
		// The mode conflicts with nothing: reads under it are always
		// valid, nothing to snapshot or validate.
		return 0, true
	}
	mech := &s.mechs[p]
	ver := mech.version.Load()
	if mech.conflictsUnclaimed(&s.table.masks[m]) {
		return 0, false
	}
	return ver, true
}

// validateMode ends an optimistic observation: one version load, one
// compare — no holder re-scan. An unchanged version proves no
// conflicting acquisition succeeded since the snapshot (acquire-side
// bump), and observeMode's scan already ruled out holders established
// before it; together the section's reads are a consistent snapshot,
// serializable at the observation point. One deliberate asymmetry: a
// conflicting writer whose acquire-time bump has not yet surfaced at
// this load can slip past the compare, but then none of its mutations
// can have been visible to the section's reads either — shared state
// is only touched through the ADTs' own linearizable operations, and
// a read that returned a post-acquire mutation synchronizes with the
// writer (mutex/atomic ordering), which makes the bump — sequenced
// before the mutation — visible to this later load. Slipping past is
// therefore only possible for writers the section never saw: the
// snapshot stays consistent.
func (s *Semantic) validateMode(m ModeID, ver uint64) bool {
	p := s.table.part[m]
	if p < 0 {
		return true
	}
	return s.mechs[p].version.Load() == ver
}

// Version returns the current optimistic version counter of mode m's
// mechanism (test hook; 0 for conflict-free modes).
func (s *Semantic) Version(m ModeID) uint64 {
	p := s.table.part[m]
	if p < 0 {
		return 0
	}
	return s.mechs[p].version.Load()
}

// Holders returns the current holder count of mode m (test hook).
func (s *Semantic) Holders(m ModeID) int32 {
	p := s.table.part[m]
	if p < 0 {
		return 0
	}
	return s.mechs[p].counts[s.table.localIdx[m]].Load()
}

// ---------------------------------------------------------------------
// Lock mechanism
// ---------------------------------------------------------------------

// mechV2 is one independent lock mechanism: the Fig 20 design (an atomic
// counter per locking mode, an internal lock to block and wake waiters,
// increment-then-scan Dekker acquisition) rebuilt for scalability. (The
// first-generation mechanism it replaced — shared-line counters, an
// O(conflicting modes) scan, broadcast wakeups — is gone;
// BENCH_lockmech.json records the comparison.)
//
//   - Counters live in padded.Int32 slots, one cache line each, so
//     acquisitions of commuting modes never contend in hardware.
//
//   - Counter slots are grouped into 64-slot words, and each word keeps a
//     padded summary counter of the claims in flight on its slots. A
//     claim increments its word's summary BEFORE its own counter and
//     decrements it AFTER, so at every instant summary[w] over-
//     approximates the occupancy of word w: summary[w] == 0 proves the
//     word empty and lets the scan skip all its slots in one load. Only
//     a hot word falls back to the exact per-slot scan over the mode's
//     conflict-mask bits. (The summary is deliberately a claim count
//     rather than a nonzero-slot count maintained on 0↔1 transitions:
//     transition-maintained indicators under-approximate while the
//     transition owner is preempted between its counter and summary
//     updates — the hazard the SNZI literature exists to solve — and an
//     under-approximating summary would miss established holders.)
//
//   - Summaries are a static per-mechanism decision (ModeTable.summaryOn):
//     maintenance costs two extra RMWs per acquire/release cycle, which
//     only a wide conflict mask (a wildcard mode) amortizes. The small
//     fine-grained mechanisms that partitioning produces in the common
//     case skip summaries and scan their few conflicting slots exactly,
//     keeping the uncontended fast path at one RMW.
//
//   - The Dekker argument is unchanged: an acquirer publishes its claim
//     (summary, then counter) before scanning, so of two conflicting
//     acquirers at least one observes the other, via either the summary
//     or the exact counter.
//
//   - Blocking uses a waiter registry keyed by each waiter's conflict
//     mask instead of a single broadcast condition variable: release(s)
//     wakes only waiters whose mask covers slot s. waitMask[w] publishes
//     (ahead of time, under mu) which slots have interested waiters, so
//     an uncontended release stays one atomic load. No lost wakeups: a
//     waiter registers (and its waitMask bits are stored) before its
//     failing re-scan, and a releaser decrements before checking
//     waitMask, so either the waiter's scan sees the decrement or the
//     releaser sees the waiter.
//
//   - The fast-path retry bound adapts: retries that eventually succeed
//     raise the bound (spinning is paying off), a fall-through to the
//     slow path lowers it. The bound stays within [1, 8]; LockStats
//     expose the resulting fast/slow split.
type mechV2 struct {
	mu       sync.Mutex
	waiters  []*waiterV2     // registry; mu-protected
	waitMask []padded.Uint64 // per-word slots with registered waiters; stored under mu, loaded lock-free
	counts   []padded.Int32  // per-slot holder counts, one cache line each
	summary  []padded.Int32  // per-word claim counts (over-approximate occupancy)
	spin     padded.Int32    // adaptive fast-path retry bound, in [minSpin, maxSpin]

	// maintainSummary is the compile-time decision to maintain summary
	// counters (see ModeTable.summaryOn). When false, claims touch only
	// their own counter and scans are exact. It is immutable: enabling
	// maintenance on a live mechanism cannot reconstruct the
	// over-approximation invariant without stopping the world.
	maintainSummary bool

	// version is the optimistic-read invalidation counter: every
	// SUCCESSFUL acquisition of a mode that conflicts with anything and
	// is not made only of observers (maskInfo.bump) advances it,
	// immediately after the claim-and-scan settles. A
	// lock-free reader snapshots it at observation and compares at
	// validation, so validation is a single load — no holder re-scan.
	// The bump lives on the acquire side (not release) because that is
	// the only transition a validator cannot otherwise rule out: an
	// established holder is caught by the observation's holder scan, a
	// writer that came and went entirely before the observation is just
	// a serialized predecessor, but a writer arriving after the snapshot
	// is invisible to any scan that already ran — only its bump reveals
	// it. See Semantic.observeMode/validateMode for the full protocol
	// and DESIGN.md §10 for the interleaving argument. Padded: it is a
	// shared RMW target for every conflicting acquisition in the
	// mechanism, like the stat cells below.
	version padded.Uint64

	fastPath  atomic.Uint64
	slow      atomic.Uint64
	waits     atomic.Uint64
	batches   atomic.Uint64
	stalls    atomic.Uint64
	waitNanos atomic.Int64
}

// waiterV2 is one blocked acquirer: the conflict mask it is waiting on,
// a 1-buffered signal channel (buffering makes a signal that races with
// the waiter's re-scan stick instead of getting lost), and diagnostic
// metadata for ScanStalls — when the wait began and, for
// transaction-driven acquisitions, the blocked transaction's acquisition
// log as of blocking (the owner is parked inside Acquire and appends to
// the log only after it deregisters, so ScanStalls may read the
// snapshot under mu without racing the owner).
type waiterV2 struct {
	mask  []wordMask
	ch    chan struct{}
	since time.Time
	log   []Acquisition
}

// waiterPool recycles waiterV2s so the slow path allocates nothing in
// steady state. A waiter is only returned after deregistration under mu,
// past which no releaser can reach it; any token a racing signal left in
// the channel is drained on reuse.
var waiterPool = sync.Pool{New: func() any {
	return &waiterV2{ch: make(chan struct{}, 1)}
}}

// waitersOut counts waiters checked out of waiterPool and not yet
// returned. The chaos harness asserts it returns to zero after a fault
// burst drains: a nonzero steady-state value means a slow path leaked a
// waiter (and with it, possibly a registration).
var waitersOut atomic.Int64

// WaitersOutstanding returns the number of slow-path waiters currently
// checked out of the free-list across all instances. Zero when the
// system is quiescent.
func WaitersOutstanding() int64 { return waitersOut.Load() }

// getWaiter checks a waiter out of the pool for one slow-path wait on
// this mechanism, stamped with its park time. That one clock read per
// slow-path entry is the only wait clock: ScanStalls (sampleMech) and
// LockStats.WaitNanos (settleWait) both measure from it.
func (m *mechV2) getWaiter(mask []wordMask, log []Acquisition) *waiterV2 {
	w := waiterPool.Get().(*waiterV2)
	select {
	case <-w.ch: // stale token from the previous use
	default:
	}
	w.mask = mask
	w.since = time.Now()
	w.log = log
	waitersOut.Add(1)
	return w
}

// settleWait folds a finished waiter's measured wait into the
// mechanism's cumulative wait time while SetWaitTiming is on, just
// before the waiter returns to the pool. A waiter that parked before
// timing was turned on still carries its park time, so it contributes
// its whole wait; with timing off it contributes nothing.
func (m *mechV2) settleWait(w *waiterV2) {
	if waitSampling.Load() {
		m.waitNanos.Add(int64(time.Since(w.since)))
	}
}

func putWaiter(w *waiterV2) {
	w.mask = nil
	w.log = nil
	waitersOut.Add(-1)
	waiterPool.Put(w)
}

// The bounds and starting point of the adaptive retry count.
const (
	minSpin     = 1
	maxSpin     = 8
	initialSpin = 2
)

func (m *mechV2) init(nSlots int, useSummary bool) {
	words := (nSlots + 63) >> 6
	m.counts = make([]padded.Int32, nSlots)
	m.summary = make([]padded.Int32, words)
	m.waitMask = make([]padded.Uint64, words)
	m.spin.Store(initialSpin)
	m.maintainSummary = useSummary
}

// claim publishes one acquisition attempt: summary first, counter
// second, so the summary never under-approximates occupancy.
func (m *mechV2) claim(slot int32) {
	if m.maintainSummary {
		m.summary[slot>>6].Add(1)
	}
	m.counts[slot].Add(1)
}

// retreat withdraws a claim: counter first, summary second (the reverse
// of claim, preserving the over-approximation invariant).
func (m *mechV2) retreat(slot int32) {
	m.counts[slot].Add(-1)
	if m.maintainSummary {
		m.summary[slot>>6].Add(-1)
	}
}

// conflictsUnclaimed is the observer's flavor of conflicts: the caller
// holds no claim of its own, so every conflicting slot — the self slot
// included, when the mode self-conflicts — blocks at threshold 0. It
// always walks the exact flat slot list: an optimistic reader must not
// miss an established holder, and the summary shortcut's only saving is
// on wide wildcard masks that read modes rarely have.
func (m *mechV2) conflictsUnclaimed(c *maskInfo) bool {
	for _, r := range c.refs {
		if m.counts[r.slot].Load() > 0 {
			return true
		}
	}
	return false
}

// claimAll and retreatAll publish and withdraw every claim of a scan, in
// claim order; a slot the scan names twice is claimed twice.
func (m *mechV2) claimAll(c *maskInfo) {
	for _, s := range c.slots {
		m.claim(s)
	}
}

func (m *mechV2) retreatAll(c *maskInfo) {
	for _, s := range c.slots {
		m.retreat(s)
	}
}

// conflicts reports whether any conflicting slot has a holder beyond
// the scan's own claims. The caller must already have claimed every
// slot of the scan (the thresholds account for that). Cold words — a
// summary that does not exceed the scan's own claims in the word, so no
// foreign claim lives there — are skipped with a single load; hot words
// fall back to the exact per-slot scan.
func (m *mechV2) conflicts(c *maskInfo) bool {
	if !m.maintainSummary {
		// Exact scan over the flat slot list: for the few conflicting
		// slots of a summary-less mechanism this is cheaper than
		// iterating the bitset words.
		for _, r := range c.refs {
			if m.counts[r.slot].Load() > r.threshold {
				return true
			}
		}
		return false
	}
	for i := range c.words {
		wm := &c.words[i]
		if m.summary[wm.w].Load() <= wm.own {
			continue
		}
		bs := wm.bits
		base := wm.w << 6
		for bs != 0 {
			slot := base + int32(bits.TrailingZeros64(bs))
			bs &= bs - 1
			if m.counts[slot].Load() > c.ownClaims(slot) {
				return true
			}
		}
	}
	return false
}

// tryAcquire is the single-mode first attempt: claim, scan, and on a
// conflict retreat without blocking.
func (m *mechV2) tryAcquire(c *maskInfo) bool {
	// The summary-less flavor is written out flat (claim, exact scan,
	// retreat) rather than through claim/conflicts/retreat: the exact
	// scan then inlines here, keeping the partitioned fast path at one
	// RMW and one call from Acquire, no further calls.
	if !m.maintainSummary {
		m.counts[c.selfSlot].Add(1)
		for _, r := range c.refs {
			if m.counts[r.slot].Load() > r.threshold {
				m.counts[c.selfSlot].Add(-1)
				// Our transient claim may have made a concurrent scanner
				// back off and sleep; its mask covers our slot, so a
				// targeted wake suffices. No version bump: a withdrawn
				// claim never mutated anything, and bumping here would
				// fail optimistic readers for nothing.
				m.wake(c.selfSlot)
				return false
			}
		}
		if c.bump {
			m.version.Add(1)
		}
		return true
	}
	m.claim(c.selfSlot)
	if !m.conflicts(c) {
		if c.bump {
			m.version.Add(1)
		}
		return true
	}
	m.retreat(c.selfSlot)
	m.wake(c.selfSlot)
	return false
}

// tryScan is tryAcquire for any scan, a batch included: it publishes
// every claim, then scans the union conflict structure once. The Dekker
// argument is unchanged from the single-mode protocol, applied per
// constituent: every claim is published before any scan, so of two
// conflicting acquirers at least one observes the other.
func (m *mechV2) tryScan(c *maskInfo) bool {
	m.claimAll(c)
	if !m.conflicts(c) {
		if c.bump {
			m.version.Add(1)
		}
		return true
	}
	m.retreatAll(c)
	// As in tryAcquire: our transient claims may have bounced concurrent
	// scanners toward the slow path; their masks cover our slots, so
	// targeted wakes suffice.
	for _, s := range c.slots {
		m.wake(s)
	}
	return false
}

// stallSlot is one conflicting counter slot observed over its threshold
// when a bounded acquisition gave up: the local slot index and the number
// of holders beyond the acquirer's own transient claim.
type stallSlot struct {
	slot  int32
	count int32
}

// acqOutcome is the two-way result of the acquisition core: the scan
// was acquired, or patience ran out with a conflict still present.
type acqOutcome uint8

const (
	acqOK acqOutcome = iota
	acqStalled
)

// conflictHolders collects every conflicting slot currently over its
// threshold, with the count of other holders on each. The caller has
// already claimed its own slots (thresholds account for that, as in
// conflicts). An empty result means no conflict — the claim can stand.
// This is the diagnostic twin of conflicts: it always walks the exact
// flat slot list rather than the summary bitset, because it runs only on
// the timeout path where completeness beats speed.
func (m *mechV2) conflictHolders(c *maskInfo) []stallSlot {
	var out []stallSlot
	for _, r := range c.refs {
		if n := m.counts[r.slot].Load() - r.threshold; n > 0 {
			out = append(out, stallSlot{slot: int32(r.slot), count: n})
		}
	}
	return out
}

// acquireSlow is the acquisition core: every acquisition whose first
// attempt did not succeed — one mode or a batch, blocking or bounded,
// logged or not — continues here.
//
// With spin set it first retries the lock-free claim-and-scan up to the
// mechanism's adaptive bound (the first attempt happened in the caller,
// before the bound was even loaded, so the uncontended path pays no
// extra atomic load). Then it serializes claim-and-scan through the
// internal lock and sleeps on the waiter's own channel while conflicts
// persist. ONE waiter, registered with the scan's union conflict mask,
// covers every constituent mode — the sequential prologue would
// register (and wake, and deregister) up to one per mode. It registers
// before its first scan under mu and stays registered until it leaves,
// so a releaser that decrements after a failed scan is guaranteed to
// find it in the registry.
//
// A blocking acquisition is patience Forever: no timer is armed and the
// timer's select arm blocks forever, so the call can only return acqOK.
// On timeout it makes one final claim-and-scan under mu — a release may
// have raced the timer — so a reported stall is a real conflict
// observed at the moment of giving up, never a stale one.
func (m *mechV2) acquireSlow(c *maskInfo, spin bool, patience time.Duration, log []Acquisition) ([]stallSlot, acqOutcome) {
	if spin {
		bound := m.spin.Load()
		for attempt := int32(1); attempt < bound; attempt++ {
			if m.tryScan(c) {
				m.fastPath.Add(1)
				if bound < maxSpin {
					// Retrying paid off; spend more retries next time.
					m.spin.Store(bound + 1)
				}
				return nil, acqOK
			}
		}
		if bound > minSpin {
			// Conflicts persisted through every retry; fall through to
			// the slow path sooner next time.
			m.spin.Store(bound - 1)
		}
	}
	m.slow.Add(1)
	w := m.getWaiter(c.words, log)
	var expired <-chan time.Time
	if patience != Forever {
		timer := time.NewTimer(patience)
		defer timer.Stop()
		expired = timer.C
	}
	var holders []stallSlot
	out := acqOK
	m.mu.Lock()
	m.registerLocked(w)
park:
	for {
		m.claimAll(c)
		if !m.conflicts(c) {
			break
		}
		m.retreatAll(c)
		// Unlike tryScan's retreat, no signal is needed here: every
		// slow-path scan runs under mu, so our transient claims were
		// invisible to other slow scanners, and a fast-path scanner they
		// bounced re-scans under mu on its own way in here. (Signalling
		// here would also let two same-slot waiters wake each other in a
		// storm that starves the holder.)
		m.waits.Add(1)
		m.mu.Unlock()
		select {
		case <-w.ch:
			m.mu.Lock()
		case <-expired:
			m.mu.Lock()
			m.claimAll(c)
			if holders = m.conflictHolders(c); len(holders) == 0 {
				// The conflict cleared between the releaser's wake and
				// the timer firing; the claim stands — acquired, not
				// stalled.
				break park
			}
			m.retreatAll(c)
			out = acqStalled
			break park
		}
	}
	if out == acqOK {
		if c.bump {
			m.version.Add(1)
		}
		m.deregisterLocked(w)
	} else {
		m.withdrawLocked(w)
	}
	m.mu.Unlock()
	m.settleWait(w)
	putWaiter(w)
	return holders, out
}

// withdrawLocked removes a waiter that is giving up on a timeout:
// it deregisters the waiter and re-donates any wake token a racing
// release parked in its channel. That token announced a release this
// waiter will now never consume; forwarding it to the remaining
// overlapping waiters keeps their progress independent of the next
// release. (Channels are per-waiter, so a discarded token cannot block
// anyone outright — re-donation converts our wasted wakeup into a
// chance at theirs.) Callers hold mu.
func (m *mechV2) withdrawLocked(w *waiterV2) {
	m.deregisterLocked(w)
	select {
	case <-w.ch:
		m.signalLocked(w.mask)
	default:
	}
}

// masksOverlap reports whether two sparse word bitsets share any slot.
func masksOverlap(a, b []wordMask) bool {
	for i := range a {
		for j := range b {
			if a[i].w == b[j].w && a[i].bits&b[j].bits != 0 {
				return true
			}
		}
	}
	return false
}

// wake signals the waiters whose conflict mask covers slot. The
// lock-free waitMask load keeps the no-waiter case (the common one) to a
// single atomic read; it is split from the locked path below so this
// check inlines into Release, making an uncontended release call-free.
func (m *mechV2) wake(slot int32) {
	if m.waitMask[slot>>6].Load()&(1<<(uint(slot)&63)) != 0 {
		m.wakeSlow(slot)
	}
}

func (m *mechV2) wakeSlow(slot int32) {
	mask := [1]wordMask{{w: slot >> 6, bits: 1 << (uint(slot) & 63)}}
	m.mu.Lock()
	m.signalLocked(mask[:])
	m.mu.Unlock()
}

// signalLocked sends a wake token to every registered waiter whose
// conflict mask overlaps mask: the one slot a release freed, or the mask
// of a departing waiter whose orphaned token is being forwarded.
// Spurious wakeups just re-scan and sleep again; a missed wakeup would
// strand a waiter, so over-delivery is the safe direction. Callers hold
// mu.
func (m *mechV2) signalLocked(mask []wordMask) {
	for _, wt := range m.waiters {
		if masksOverlap(wt.mask, mask) {
			select {
			case wt.ch <- struct{}{}:
			default: // token already pending; one is enough
			}
		}
	}
}

// registerLocked adds w to the registry and publishes its mask bits.
// Callers hold mu.
func (m *mechV2) registerLocked(w *waiterV2) {
	m.waiters = append(m.waiters, w)
	for i := range w.mask {
		wm := &w.mask[i]
		m.waitMask[wm.w].Store(m.waitMask[wm.w].Load() | wm.bits)
	}
}

// deregisterLocked removes w and recomputes waitMask from the remaining
// waiters. Each word is recomputed into a local and written with one
// Store — never zeroed first — so a concurrent lock-free reader can
// observe a stale-high mask (a harmless extra mu acquisition) but never
// a transiently-cleared bit of a still-registered waiter (which would be
// a lost wakeup). Callers hold mu.
func (m *mechV2) deregisterLocked(w *waiterV2) {
	for i, x := range m.waiters {
		if x == w {
			last := len(m.waiters) - 1
			m.waiters[i] = m.waiters[last]
			m.waiters[last] = nil
			m.waiters = m.waiters[:last]
			break
		}
	}
	for wd := range m.waitMask {
		var bits uint64
		for _, wt := range m.waiters {
			for i := range wt.mask {
				if int(wt.mask[i].w) == wd {
					bits |= wt.mask[i].bits
					break
				}
			}
		}
		m.waitMask[wd].Store(bits)
	}
}
