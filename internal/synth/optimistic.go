package synth

import (
	"repro/internal/ir"
)

// This file is the StageOptimistic pass: the static half of the hybrid
// optimistic/pessimistic execution scheme. A synthesized section whose
// every ADT call is a declared observer (core.Spec.Observer) is rewritten
// into the envelope
//
//	optimistic { <body with LV/LV2/LockBatch replaced by observe> }
//	fallback   { <the unchanged pessimistic expansion> }
//
// which internal/gosrc emits transaction-free — the body over a
// core.Snapshot on the function's stack, ahead of the guard that wraps
// the fallback, since the envelope is the whole section — and
// internal/interp runs through core.Txn.TryOptimistic: the body runs
// without acquiring anything, snapshotting the version counter of every
// mode the pessimistic section would have locked, and validates the
// snapshots at the end; on mismatch the body's results are discarded and
// the fallback — the exact section the pipeline would have emitted
// without this pass — re-runs under locks.
//
// Certification is deliberately conservative. A section is eligible only
// when:
//
//   - every ir.Call resolves to a class whose spec declares the method
//     an observer (abstract-state purity: discarding the body's results
//     after a failed validation must leave no trace in shared state);
//   - no ir.Opaque expression appears anywhere (Opaque is the frontier
//     of the IR's knowledge — applications route I/O and other
//     irrevocable effects through it, and an irrevocable effect cannot
//     be re-run by the fallback);
//   - the section actually locks something (a lock-free section gains
//     nothing from the envelope).
//
// Calls on cycle-wrapped classes are excluded automatically: the
// wrapper's synthetic spec declares no observers.

// makeOptimistic rewrites section si into the optimistic envelope when
// it is certified read-only, and reports whether it did. The fallback
// block aliases the original body; the optimistic body is a transformed
// deep copy, so the two halves share no statement nodes.
func makeOptimistic(si int, sec *ir.Atomic, cs *Classes) bool {
	if !optimisticEligible(si, sec, cs) {
		return false
	}
	body := observeBlock(sec.Clone().Body)
	sec.Body = ir.Block{&ir.Optimistic{Body: body, Fallback: sec.Body}}
	return true
}

// optimisticEligible is the read-only certificate described above.
func optimisticEligible(si int, sec *ir.Atomic, cs *Classes) bool {
	locks := 0
	ok := true
	walkStmts(sec.Body, func(s ir.Stmt) {
		switch x := s.(type) {
		case *ir.LV, *ir.LV2, *ir.LockBatch:
			locks++
		case *ir.Call:
			key, found := cs.ClassOfVar(si, x.Recv)
			if !found {
				ok = false
				return
			}
			c := cs.ByKey[key]
			if c == nil || c.Spec == nil || !c.Spec.IsObserver(x.Method) {
				ok = false
				return
			}
			for _, a := range x.Args {
				if _, opaque := a.(ir.Opaque); opaque {
					ok = false
					return
				}
			}
		case *ir.Assign:
			if _, opaque := x.Rhs.(ir.Opaque); opaque {
				ok = false
			}
		case *ir.Optimistic:
			ok = false // already rewritten; never nest
		}
	})
	return ok && locks > 0
}

// observeBlock rewrites a (freshly cloned) pessimistic block into the
// optimistic body: lock statements become observations of the same
// symbolic sets, and the lock bookkeeping — prologue, epilogue, early
// releases — disappears, since the body holds nothing. The runtime
// observation dedupes per instance exactly as LV dedupes through
// LOCAL_SET, so structural repetition is harmless.
func observeBlock(b ir.Block) ir.Block {
	out := make(ir.Block, 0, len(b))
	for _, s := range b {
		switch x := s.(type) {
		case *ir.Prologue, *ir.Epilogue, *ir.UnlockAllVar:
			// Lock bookkeeping: nothing is held, nothing to track.
		case *ir.LV:
			out = append(out, &ir.Observe{
				Vars:    []string{x.Var},
				Set:     x.Set,
				Generic: x.Generic,
				Guarded: x.Guarded || !x.NoLocalSet,
			})
		case *ir.LV2:
			out = append(out, &ir.Observe{
				Vars:    x.Vars,
				Set:     x.Set,
				Generic: x.Generic,
				Guarded: true,
			})
		case *ir.LockBatch:
			for _, e := range x.Entries {
				out = append(out, &ir.Observe{
					Vars:    e.Vars,
					Set:     e.Set,
					Generic: e.Generic,
					Guarded: e.Guarded || !e.NoLocalSet || len(e.Vars) > 1,
				})
			}
		case *ir.If:
			x.Then = observeBlock(x.Then)
			if x.Else != nil {
				x.Else = observeBlock(x.Else)
			}
			out = append(out, x)
		case *ir.While:
			x.Body = observeBlock(x.Body)
			out = append(out, x)
		default:
			out = append(out, s)
		}
	}
	return out
}
