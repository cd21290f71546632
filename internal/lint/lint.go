// Package lint is a small go/analysis-style checker for this
// repository's runtime invariants — the properties the lock mechanism
// and transaction layer rely on but the compiler cannot enforce. It is
// built on the standard library only (go/ast, go/parser, go/types), so
// the module keeps its zero-dependency property; the framework mirrors
// golang.org/x/tools/go/analysis closely enough that the analyzers could
// be ported verbatim if the dependency ever becomes available.
//
// The analyzers:
//
//   - txndiscipline: the raw lock mechanism (core.Semantic's Acquire /
//     TryAcquire / Release) must only be driven through core.Txn, which
//     enforces the two-phase and OS2PL rules; direct calls outside
//     internal/core bypass the protocol.
//   - modemask: lock-mode masks are 64-bit; shifting an untyped
//     constant by a non-constant count in int context silently builds a
//     31-bit mask on the way to a uint64 word.
//   - abortpath: a function that creates a core.Txn (NewTxn,
//     NewCheckedTxn, or a pool checkout asserted to *core.Txn) must
//     guard its release against panics — a deferred UnlockAll or an
//     Atomically section — unless it returns the transaction to its
//     caller.
//   - batchable: adjacent Txn.Lock calls at the same rank are a fused
//     prologue written long-hand; Txn.LockBatch acquires the same
//     constituents in one call and claims same-instance runs in a
//     single pass.
//   - occpure: a //semlock:atomic function marked //semlock:readonly
//     asserts it only observes its ADTs (the optimistic-envelope
//     eligibility property); mutator calls or stores to package-level
//     state inside such a section break the assertion silently. The
//     span between a core.Snapshot's Observe and its Validate makes the
//     same promise and is held to the same rule (SnapshotSpans is the
//     span rule, shared with heldwalk and interproc's guardedby); an
//     Observe that no Validate answers is reported too.
//   - retrypath: a bounded acquisition (LockWithin, AcquireWithin and
//     LockBatchWithin) signals stalls through its error; a discarded error proceeds without the lock, and an
//     unbounded `for {}` retry that does not go through Policy.Run
//     turns one stall into a retry storm.
//   - boxonce: a string or integer key handed to the selector and to
//     each map operation of one atomic section is boxed into core.Value
//     — heap-allocated — once per use; box it once before the section.
//   - heldwalk: an adt *Held walk (HashMap.RangeHeld) takes no lock of
//     the container's own, so it must come after a lock acquisition in
//     its section and never inside a TryOptimistic body or a
//     core.Snapshot's Observe…Validate span.
//
// Two invariants have no analyzer here because something else already
// decides them. An internal/padded counter copied by value is go vet's
// copylocks finding: each padded type wraps a sync/atomic value
// (internal/padded's TestCounterFieldsAreAtomic keeps it that way). A
// section's release on every path is core.Atomically's epilogue, and
// abortpath holds every other Txn to a panic-safe release.
//
// What opens a section, which named type a value is, and what a
// directive line means are answered once, in section.go and
// directives.go, for these analyzers and internal/lint/interproc's.
//
// Deliberate exceptions — plan transcriptions in internal/modules and
// internal/apps, and benchmarks of the bare mechanism — carry
// //semlockvet:ignore or //semlockvet:file-ignore directives with a
// mandatory reason (see directives.go).
//
// cmd/semlockvet is the command-line driver.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named check, in the shape of
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	PkgPath  string
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of an expression, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// Diagnostic is one finding. Whole-program analyzers additionally carry
// a Witness: the interprocedural path (caller chain, escape point,
// acquisition sequence) demonstrating how the violating state is
// reached, one step per line.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	Witness  []string
}

func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
	for _, w := range d.Witness {
		s += "\n    " + w
	}
	return s
}

// All returns the repository's per-package analyzers. Whole-program
// analyzers (guardedby, rankorder) live in internal/lint/interproc.
func All() []*Analyzer {
	return []*Analyzer{TxnDiscipline, ModeMask, AbortPath, Batchable, OccPure, RetryPath, BoxOnce, HeldWalk}
}

// ProgramAnalyzer is one whole-program check: unlike Analyzer it sees
// every loaded package at once, so it can build a call graph and reason
// across function and package boundaries. The interprocedural analyzers
// of internal/lint/interproc implement this interface.
type ProgramAnalyzer struct {
	Name string
	Doc  string
	Run  func(*ProgramPass)
}

// ProgramPass carries the whole loaded program through one
// whole-program analyzer.
type ProgramPass struct {
	Analyzer *ProgramAnalyzer
	Pkgs     []*Package

	diags *[]Diagnostic
}

// Report records a fully-formed diagnostic (the analyzer name is filled
// in by the pass).
func (p *ProgramPass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	*p.diags = append(*p.diags, d)
}

// Reportf records a diagnostic at pos, resolved through pkg's FileSet.
func (p *ProgramPass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{
		Pos:     pkg.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// Run applies the per-package analyzers to each package and the
// whole-program analyzers to all of them, and returns the findings
// sorted by position. Findings covered by a //semlockvet:ignore or
// //semlockvet:file-ignore directive of the file they land in (see
// directives.go) are dropped; a malformed directive, or one naming no
// analyzer of this run, is itself reported.
func Run(pkgs []*Package, analyzers []*Analyzer, program []*ProgramAnalyzer) []Diagnostic {
	known := map[string]bool{directiveAnalyzer: true}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	for _, a := range program {
		known[a.Name] = true
	}
	var diags, raw []Diagnostic
	sup := parseSuppressions(pkgs, known, func(d Diagnostic) { diags = append(diags, d) })
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			a.Run(&Pass{
				Analyzer: a,
				PkgPath:  pkg.PkgPath,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &raw,
			})
		}
	}
	for _, a := range program {
		a.Run(&ProgramPass{Analyzer: a, Pkgs: pkgs, diags: &raw})
	}
	for _, d := range raw {
		if !sup.covers(d) {
			diags = append(diags, d)
		}
	}
	sortDiags(diags)
	return diags
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}
