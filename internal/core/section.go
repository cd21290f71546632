package core

import (
	"fmt"
	"sync"

	"repro/internal/padded"
)

// This file makes atomic sections panic-safe: Atomically guarantees that
// a section which panics (or calls Txn.Abort) releases every held
// Semantic lock before the panic escapes, so a fault inside one section
// can never park conflicting waiters forever. The synthesized code in
// *_semlock.go files wraps every section body in Atomically, making
// generated sections panic-safe by construction.

// SectionPanic wraps a panic that escaped an atomic section. The
// deferred epilogue has already released every lock the section held;
// the wrapper carries what the section had acquired so the fault is
// diagnosable after the unwinding.
type SectionPanic struct {
	// Value is the original panic value.
	Value any
	// HeldAtPanic is how many instance locks the section held when the
	// panic fired. All of them were released before re-panicking.
	HeldAtPanic int
	// Log is the section's acquisition log at the time of the panic
	// (checked transactions only; nil otherwise).
	Log []Acquisition
}

func (p *SectionPanic) Error() string {
	return fmt.Sprintf("core: panic escaped atomic section holding %d lock(s) (all released): %v",
		p.HeldAtPanic, p.Value)
}

// Unwrap exposes the original panic value when it was an error, so
// errors.Is/As see through the section wrapper.
func (p *SectionPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// sectionPanics and sectionAborts are process-wide telemetry counters
// for the two abnormal section exits: panics that escaped a section
// (re-raised as *SectionPanic after the epilogue released its locks)
// and Txn.Abort calls swallowed by their own Atomically frame. Padded
// cells: the counters sit on the Atomically unwinding path, which chaos
// workloads hit from many goroutines at once.
var (
	sectionPanics padded.Uint64
	sectionAborts padded.Uint64
)

// SectionPanicsRecovered returns how many panics have escaped atomic
// sections process-wide. Every one of them had its section's locks
// released by the Atomically epilogue before re-panicking. A panic in a
// transaction-free optimistic read (a Snapshot's Observe…Validate span)
// is not one of them: that read holds no lock and no pooled object, so
// the panic unwinds as itself, unwrapped and uncounted — there is
// nothing to release and nothing for a SectionPanic to report. The
// read's pessimistic fallback is an ordinary section and counts.
func SectionPanicsRecovered() uint64 { return sectionPanics.Load() }

// SectionAborts returns how many Txn.Abort calls have been absorbed by
// their enclosing Atomically process-wide.
func SectionAborts() uint64 { return sectionAborts.Load() }

// sectionAbort is the sentinel Txn.Abort panics with. It carries the
// aborting transaction so nested sections on distinct transactions abort
// independently: only the Atomically frame running that transaction
// swallows it.
type sectionAbort struct{ t *Txn }

// Abort abandons the current atomic section: the enclosing Atomically
// releases every held lock and returns normally. Calling Abort outside
// an Atomically section panics with an unrecognized sentinel (caught by
// nothing), which is the correct failure mode — there is no section to
// abort.
func (t *Txn) Abort() {
	panic(&sectionAbort{t: t})
}

// Atomically runs fn as one atomic section on t with a guaranteed
// epilogue: every lock fn acquired is released when fn returns, panics,
// or aborts. A panic re-panics as *SectionPanic carrying the section's
// acquisition state; Txn.Abort returns normally. This is the panic-safe
// form of the §3.1 prologue/epilogue pair.
func (t *Txn) Atomically(fn func(*Txn)) {
	defer t.epilogue(false)
	fn(t)
}

// txnPool recycles transactions for the package-level Atomically so a
// synthesized section allocates nothing in steady state.
var txnPool = sync.Pool{New: func() any { return NewTxn() }}

// Atomically runs fn as one atomic section on a pooled transaction. The
// transaction is returned to the pool on every exit path — normal
// return, Txn.Abort, or panic — and its locks are always released
// first. Generated *_semlock.go code uses this as the section wrapper.
func Atomically(fn func(*Txn)) {
	t := txnPool.Get().(*Txn)
	defer t.epilogue(true)
	fn(t)
}

// epilogue is the one deferred call of a section, in the order that
// keeps every exit path safe: release the locks, settle an abort or a
// panic, hand a pooled transaction back, and only then re-panic. It
// calls recover, so it must be deferred directly.
func (t *Txn) epilogue(pooled bool) {
	heldAtPanic := len(t.held)
	t.UnlockAll()
	var raise any
	switch r := recover().(type) {
	case nil:
		// Normal return.
	case *sectionAbort:
		if r.t == t {
			sectionAborts.Add(1) // our own abort: swallow
		} else {
			raise = r // some outer section's abort; keep unwinding
		}
	default:
		var log []Acquisition
		if len(t.log) > 0 {
			log = append(log, t.log...)
		}
		sectionPanics.Add(1)
		raise = &SectionPanic{Value: r, HeldAtPanic: heldAtPanic, Log: log}
	}
	if pooled {
		// No locks are held here even when unwinding; Reset cannot panic.
		t.Reset()
		txnPool.Put(t)
	}
	if raise != nil {
		panic(raise)
	}
}
