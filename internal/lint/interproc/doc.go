// Package interproc is the whole-program half of the repository's lint
// suite: a stdlib-only interprocedural analysis engine (call-graph
// construction over every loaded package, per-function summaries, and a
// simple instance-flow/escape lattice for values of semantic-ADT types)
// powering two analyzers that per-package passes cannot express:
//
//   - guardedby: proves every call to a semantic-ADT operation (the
//     internal/adt containers and their internal/semadt wrappers) is
//     dominated by an enclosing atomic section's Txn — reached from
//     core.Atomically / Txn.Atomically / Txn.TryOptimistic, the
//     resilience layer's section entry (resilience.Policy.Run runs its
//     closure inside core.Atomically),
//     a //semlock:atomic-compiled section, the span between a
//     core.Snapshot's Observe and the Validate that decides it (a
//     transaction-free optimistic read; lint.SnapshotSpans — an Observe
//     that is never validated opens nothing), or an explicitly certified
//     baseline guard (internal/cc, or a hand-transcribed plan's raw
//     Semantic acquisition) — and reports the interprocedural witness
//     (caller chain from an unguarded entry point, the spawn or escape
//     point, the receiver's instance-flow origin) for any operation
//     reachable outside one. //semlockvet:ignore with a reason is the
//     only escape hatch.
//
//   - rankorder: extracts the static rank argument of every hand-written
//     Txn.Lock / LockWithin / LockOrdered / LockBatch(Within) / Observe site
//     (and the cc.TwoPL baseline's ordered instance locks), builds the
//     program-wide lock-order graph over those rank symbols — splicing
//     the acquisition sequences of helpers that receive the transaction
//     as a parameter into their callers — and proves it acyclic,
//     printing the cycle as a potential-deadlock counterexample
//     otherwise. A core.Snapshot observation acquires nothing and has
//     no rank: its span contributes no edge. Together with
//     internal/verify's GlobalOrder embedding check over the synthesized
//     plans (exact class ranks), this extends the per-section OS2PL
//     certificate to a global claim.
//
// Both analyzers implement lint.ProgramAnalyzer and run through
// lint.Run next to the per-package suite. What opens a section, the
// core/cc/adt type predicates and what a directive line means come from
// internal/lint, so both tiers answer them alike; this package adds only
// the call-graph engine and the two analyzers over it.
//
// The engine is deliberately conservative where Go makes static
// resolution hard: calls through interfaces and function values resolve
// to no callee (instead, every method with an exported name, every
// main/init, and every function referenced as a value counts as an
// entry point), goroutine bodies never inherit their spawner's section
// (a spawned goroutine runs outside the transaction by construction),
// and loop back-edges add no ordering constraints (a fresh transaction
// per iteration is the common shape; the runtime's checked order
// assertion covers the rest).
package interproc

import "repro/internal/lint"

// All returns the whole-program analyzers, in the order semlockvet runs
// them.
func All() []*lint.ProgramAnalyzer {
	return []*lint.ProgramAnalyzer{GuardedBy, RankOrder}
}
