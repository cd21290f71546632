package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/adtspecs"
)

// ---------------------------------------------------------------------
// paddedcopy
// ---------------------------------------------------------------------

// PaddedCopy flags copies of internal/padded counter types. The padded
// types exist to pin one hot atomic counter per cache line; a by-value
// copy duplicates the counter (updates split between the copies) and is
// never what the lock mechanism means. They must move by pointer or
// live in-place inside arrays.
var PaddedCopy = &Analyzer{
	Name: "paddedcopy",
	Doc:  "flags internal/padded counters copied by value",
	Run:  runPaddedCopy,
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

func paddedTypeName(t types.Type) (string, bool) {
	n, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || !strings.HasSuffix(obj.Pkg().Path(), "internal/padded") {
		return "", false
	}
	if _, isStruct := n.Underlying().(*types.Struct); !isStruct {
		return "", false
	}
	return obj.Name(), true
}

func runPaddedCopy(p *Pass) {
	if strings.HasSuffix(p.PkgPath, "internal/padded") {
		return // the package's own internals are exempt
	}
	checkField := func(f *ast.Field, what string) {
		if name, ok := paddedTypeName(p.TypeOf(f.Type)); ok {
			p.Reportf(f.Pos(), "padded.%s %s by value; use *padded.%s", name, what, name)
		}
	}
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncType:
				if x.Params != nil {
					for _, f := range x.Params.List {
						checkField(f, "passed")
					}
				}
				if x.Results != nil {
					for _, f := range x.Results.List {
						checkField(f, "returned")
					}
				}
			case *ast.AssignStmt:
				for i, rhs := range x.Rhs {
					if _, isLit := rhs.(*ast.CompositeLit); isLit {
						continue // zero-value initialization, not a copy
					}
					if _, isCall := rhs.(*ast.CallExpr); isCall {
						continue // the offending result type is flagged at its signature
					}
					if len(x.Lhs) == len(x.Rhs) && isBlank(x.Lhs[i]) {
						continue // discarded, not duplicated
					}
					if name, ok := paddedTypeName(p.TypeOf(rhs)); ok {
						p.Reportf(rhs.Pos(), "assignment copies padded.%s by value", name)
					}
				}
			case *ast.ValueSpec:
				for i, v := range x.Values {
					if _, isLit := v.(*ast.CompositeLit); isLit {
						continue
					}
					if _, isCall := v.(*ast.CallExpr); isCall {
						continue
					}
					if i < len(x.Names) && x.Names[i].Name == "_" {
						continue
					}
					if name, ok := paddedTypeName(p.TypeOf(v)); ok {
						p.Reportf(v.Pos(), "declaration copies padded.%s by value", name)
					}
				}
			case *ast.RangeStmt:
				if x.Value != nil {
					if name, ok := paddedTypeName(p.TypeOf(x.Value)); ok {
						p.Reportf(x.Value.Pos(), "range copies padded.%s elements by value; index the slice instead", name)
					}
				}
			}
			return true
		})
	}
}

// ---------------------------------------------------------------------
// txndiscipline
// ---------------------------------------------------------------------

// TxnDiscipline flags direct calls to the raw lock mechanism —
// core.Semantic's Acquire, TryAcquire, Release — outside internal/core.
// Every acquisition in the system must flow through core.Txn, which
// enforces the LOCAL_SET re-lock elision, the two-phase rule, and the
// OS2PL rank order; a raw Acquire bypasses all three. (Test files are
// not loaded by semlockvet, so benchmarks of the bare mechanism remain
// possible.)
var TxnDiscipline = &Analyzer{
	Name: "txndiscipline",
	Doc:  "flags raw Semantic lock calls outside internal/core",
	Run:  runTxnDiscipline,
}

var rawLockMethods = map[string]bool{"Acquire": true, "TryAcquire": true, "Release": true}

// namedFromCore reports whether t (possibly behind a pointer) is the
// named core type.
func namedFromCore(t types.Type, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "internal/core")
}

func runTxnDiscipline(p *Pass) {
	if strings.HasSuffix(p.PkgPath, "internal/core") {
		return // the transaction layer itself drives the mechanism
	}
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !rawLockMethods[sel.Sel.Name] {
				return true
			}
			if namedFromCore(p.TypeOf(sel.X), "Semantic") {
				p.Reportf(call.Pos(),
					"raw Semantic.%s outside internal/core; acquire through core.Txn so two-phase and OS2PL order are enforced",
					sel.Sel.Name)
			}
			return true
		})
	}
}

// ---------------------------------------------------------------------
// modemask
// ---------------------------------------------------------------------

// ModeMask flags mask construction of the form `1 << slot` (an untyped
// constant shifted by a non-constant count) in a context where the
// shift adopts type int. The lock mechanism's wait and conflict masks
// are uint64 words; an int-typed shift truncates slots ≥ 31 on 32-bit
// builds and invites a sign-bit surprise at slot 63. Write
// `uint64(1) << (slot & 63)` so the width is explicit.
var ModeMask = &Analyzer{
	Name: "modemask",
	Doc:  "flags untyped-constant shifts that default to int where a 64-bit mask is intended",
	Run:  runModeMask,
}

func runModeMask(p *Pass) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || be.Op != token.SHL {
				return true
			}
			xtv, xok := p.Info.Types[be.X]
			if !xok || xtv.Value == nil {
				return true // shifted operand is not a constant
			}
			if ytv, yok := p.Info.Types[be.Y]; !yok || ytv.Value != nil {
				return true // constant count: a width, not a runtime mask
			}
			tv, ok := p.Info.Types[be]
			if !ok {
				return true
			}
			basic, ok := tv.Type.(*types.Basic)
			if !ok || basic.Kind() != types.Int {
				return true
			}
			p.Reportf(be.Pos(),
				"constant %s shifted by a variable count defaults to int; write uint64(%s) << ... for a 64-bit mask",
				xtv.Value, xtv.Value)
			return true
		})
	}
}

// ---------------------------------------------------------------------
// unlockpath
// ---------------------------------------------------------------------

// UnlockPath checks, in internal/modules, that a function which locks
// through a core.Txn releases on every return path: either a deferred
// UnlockAll, or an explicit UnlockAll/UnlockInstance between the lock
// and each return. The check is syntactic (source order approximates
// paths), which is exactly right for the module code's straight-line
// lock/work/unlock shape — and `defer tx.UnlockAll()` is always the
// recommended fix it suggests.
var UnlockPath = &Analyzer{
	Name: "unlockpath",
	Doc:  "flags Txn locks in internal/modules without UnlockAll on every return path",
	Run:  runUnlockPath,
}

func runUnlockPath(p *Pass) {
	if !strings.Contains(p.PkgPath, "internal/modules") {
		return
	}
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			p.checkUnlockPaths(fn)
		}
	}
}

func (p *Pass) checkUnlockPaths(fn *ast.FuncDecl) {
	var firstLock token.Pos = token.NoPos
	var lockRecv string
	var unlockPositions []token.Pos
	deferredUnlock := false

	isTxnCall := func(call *ast.CallExpr, methods map[string]bool) (string, bool) {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !methods[sel.Sel.Name] {
			return "", false
		}
		if !namedFromCore(p.TypeOf(sel.X), "Txn") {
			return "", false
		}
		return exprText(sel.X), true
	}
	lockMethods := map[string]bool{"Lock": true, "LockOrdered": true}
	unlockMethods := map[string]bool{"UnlockAll": true, "UnlockInstance": true}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.DeferStmt:
			if _, ok := isTxnCall(x.Call, unlockMethods); ok {
				deferredUnlock = true
			}
			// defer func() { ...; tx.UnlockAll(); ... }()
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok {
						if _, ok := isTxnCall(call, unlockMethods); ok {
							deferredUnlock = true
						}
					}
					return true
				})
			}
		case *ast.CallExpr:
			if recv, ok := isTxnCall(x, lockMethods); ok {
				if firstLock == token.NoPos {
					firstLock, lockRecv = x.Pos(), recv
				}
			}
			if _, ok := isTxnCall(x, unlockMethods); ok {
				unlockPositions = append(unlockPositions, x.Pos())
			}
		}
		return true
	})

	if firstLock == token.NoPos || deferredUnlock {
		return
	}
	unlockBetween := func(lo, hi token.Pos) bool {
		for _, u := range unlockPositions {
			if u > lo && u <= hi {
				return true
			}
		}
		return false
	}
	flagged := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // returns inside closures are not this function's paths
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || ret.Pos() < firstLock {
			return true
		}
		if !unlockBetween(firstLock, ret.Pos()) {
			p.Reportf(ret.Pos(),
				"return leaves %s locked: no UnlockAll between the Lock and this return; prefer defer %s.UnlockAll()",
				lockRecv, lockRecv)
			flagged = true
		}
		return true
	})
	// A function with no return statements still needs a release before
	// falling off the end.
	if !flagged && !unlockBetween(firstLock, fn.Body.End()) {
		p.Reportf(firstLock, "%s.Lock without any UnlockAll in %s; prefer defer %s.UnlockAll()",
			lockRecv, fn.Name.Name, lockRecv)
	}
}

// ---------------------------------------------------------------------
// abortpath
// ---------------------------------------------------------------------

// AbortPath flags functions that create a core.Txn — core.NewTxn(),
// core.NewCheckedTxn(), or a pool checkout asserted to *core.Txn —
// without a panic-safe release: a deferred UnlockAll (directly or
// inside a deferred func literal) or a Txn.Atomically section. An
// in-line UnlockAll is not enough: a panic between the lock and the
// release strands the holder counts forever (no other goroutine can
// clean them up), which is exactly the failure the runtime's panic-safe
// epilogue exists to prevent. A transaction whose ownership leaves the
// function through a return statement is the caller's to guard;
// deliberate other shapes carry //semlockvet:ignore with a reason.
var AbortPath = &Analyzer{
	Name: "abortpath",
	Doc:  "flags Txn creation without a deferred UnlockAll or Atomically guard",
	Run:  runAbortPath,
}

func runAbortPath(p *Pass) {
	if strings.HasSuffix(p.PkgPath, "internal/core") {
		return // the epilogue's own plumbing lives here
	}
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			p.checkAbortScope(fn.Name.Name, fn.Body)
		}
	}
}

// abortCreation is one Txn acquisition site within a scope.
type abortCreation struct {
	pos     token.Pos
	obj     types.Object // the bound variable, if any
	escaped bool         // ownership left through a return statement
}

// checkAbortScope analyzes one function-like scope (a FuncDecl body or
// a func literal's body; nested literals are separate scopes).
func (p *Pass) checkAbortScope(name string, body *ast.BlockStmt) {
	isTxnPtr := func(t types.Type) bool {
		ptr, ok := t.(*types.Pointer)
		return ok && namedFromCore(ptr.Elem(), "Txn")
	}
	// newTxn reports whether e mints or checks out a transaction.
	newTxn := func(e ast.Expr) bool {
		switch x := e.(type) {
		case *ast.CallExpr:
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "NewTxn" && sel.Sel.Name != "NewCheckedTxn") {
				return false
			}
			t := p.TypeOf(x)
			return t != nil && isTxnPtr(t)
		case *ast.TypeAssertExpr:
			return x.Type != nil && isTxnPtr(p.TypeOf(x.Type))
		}
		return false
	}
	isTxnMethod := func(call *ast.CallExpr, method string) bool {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == method && namedFromCore(p.TypeOf(sel.X), "Txn")
	}

	var creations []*abortCreation
	byObj := map[types.Object][]*abortCreation{} // one variable may bind several creation sites
	recorded := map[token.Pos]bool{}
	guarded := false
	var lits []*ast.FuncLit

	record := func(e ast.Expr, lhs ast.Expr) {
		if !newTxn(e) || recorded[e.Pos()] {
			return
		}
		recorded[e.Pos()] = true
		c := &abortCreation{pos: e.Pos()}
		if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
			if obj := p.Info.Defs[id]; obj != nil {
				c.obj = obj
			} else if obj := p.Info.Uses[id]; obj != nil {
				c.obj = obj
			}
		}
		creations = append(creations, c)
		if c.obj != nil {
			byObj[c.obj] = append(byObj[c.obj], c)
		}
	}
	// markEscaped marks every creation referenced inside e — by its
	// bound variable or as the creation expression itself.
	markEscaped := func(e ast.Expr) {
		ast.Inspect(e, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Ident:
				for _, c := range byObj[p.Info.Uses[x]] {
					c.escaped = true
				}
			case *ast.CallExpr, *ast.TypeAssertExpr:
				if expr := n.(ast.Expr); newTxn(expr) {
					record(expr, nil)
					for _, c := range creations {
						if c.pos == expr.Pos() {
							c.escaped = true
						}
					}
				}
			}
			return true
		})
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			lits = append(lits, x)
			return false // its own scope
		case *ast.DeferStmt:
			if isTxnMethod(x.Call, "UnlockAll") {
				guarded = true
			}
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok && isTxnMethod(call, "UnlockAll") {
						guarded = true
					}
					return true
				})
				lits = append(lits, lit)
			}
			return false // a deferred Put(tx) is cleanup, not an ownership escape
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				markEscaped(res)
			}
			return true
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				for i, rhs := range x.Rhs {
					record(rhs, x.Lhs[i])
				}
			}
			return true
		case *ast.ValueSpec:
			for i, v := range x.Values {
				if i < len(x.Names) {
					record(v, x.Names[i])
				}
			}
			return true
		case *ast.CallExpr:
			if isTxnMethod(x, "Atomically") {
				guarded = true
			}
			record(x, nil) // a discarded or nested creation still leaks
			return true
		case *ast.TypeAssertExpr:
			record(x, nil)
			return true
		}
		return true
	})

	if !guarded {
		for _, c := range creations {
			if !c.escaped {
				p.Reportf(c.pos,
					"core.Txn created in %s without a panic-safe release; wrap the section in Atomically or defer UnlockAll",
					name)
			}
		}
	}
	for _, lit := range lits {
		p.checkAbortScope("func literal", lit.Body)
	}
}

// ---------------------------------------------------------------------
// batchable
// ---------------------------------------------------------------------

// Batchable flags runs of adjacent Txn.Lock calls on the same
// transaction at the same rank. Such a run is a fused prologue written
// long-hand: Txn.LockBatch acquires the same constituents in one call,
// sorts them into the OS2PL (rank, unique-id) order itself, and — when
// they land on one instance — claims them in a single pass with one
// union-mask waiter instead of one waiter per constituent. The check is
// deliberately narrow: only statement-adjacent calls in the same block
// qualify (anything between them may depend on the partial lock set),
// and calls whose rank expressions differ are left alone because fusion
// must never cross a rank boundary — the inner acquisition order IS the
// OS2PL order, and batching across ranks would let a lower-rank
// constituent block while higher-rank locks are already held.
var Batchable = &Analyzer{
	Name: "batchable",
	Doc:  "flags adjacent same-rank Txn.Lock calls that could be one LockBatch",
	Run:  runBatchable,
}

func runBatchable(p *Pass) {
	if strings.HasSuffix(p.PkgPath, "internal/core") {
		return // the batch implementation expands into these calls
	}
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			block, ok := n.(*ast.BlockStmt)
			if !ok {
				return true
			}
			p.checkBatchableRuns(block.List)
			return true
		})
	}
}

// lockCallInfo describes one `tx.Lock(sem, mode, rank)` statement.
type lockCallInfo struct {
	pos  token.Pos
	recv string // receiver expression, textually
	rank string // rank argument: constant value or expression text
}

// rankText renders a rank argument for comparison: constant ranks
// compare by value, everything else by expression source shape.
func (p *Pass) rankText(e ast.Expr) string {
	if tv, ok := p.Info.Types[e]; ok && tv.Value != nil {
		return "const:" + tv.Value.ExactString()
	}
	switch x := e.(type) {
	case *ast.Ident:
		return "expr:" + x.Name
	case *ast.SelectorExpr:
		return "expr:" + exprText(x)
	}
	return "" // unique: never considered equal to another rank
}

func (p *Pass) checkBatchableRuns(stmts []ast.Stmt) {
	asLock := func(s ast.Stmt) (lockCallInfo, bool) {
		es, ok := s.(*ast.ExprStmt)
		if !ok {
			return lockCallInfo{}, false
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok || len(call.Args) != 3 {
			return lockCallInfo{}, false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Lock" || !namedFromCore(p.TypeOf(sel.X), "Txn") {
			return lockCallInfo{}, false
		}
		return lockCallInfo{pos: call.Pos(), recv: exprText(sel.X), rank: p.rankText(call.Args[2])}, true
	}
	for i := 0; i < len(stmts); {
		first, ok := asLock(stmts[i])
		if !ok || first.rank == "" {
			i++
			continue
		}
		j := i + 1
		for j < len(stmts) {
			next, ok := asLock(stmts[j])
			if !ok || next.recv != first.recv || next.rank != first.rank {
				break
			}
			j++
		}
		if run := j - i; run >= 2 {
			p.Reportf(first.pos,
				"%d adjacent %s.Lock calls at one rank; fuse into a single %s.LockBatch so same-instance constituents are claimed in one pass",
				run, first.recv, first.recv)
		}
		i = j
	}
}

// exprText renders a simple receiver expression for diagnostics.
func exprText(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprText(x.X) + "." + x.Sel.Name
	default:
		return "txn"
	}
}

// ---------------------------------------------------------------------
// retrypath
// ---------------------------------------------------------------------

// RetryPath checks the discipline around the bounded-acquisition
// surface (Txn.LockWithin / LockBatchWithin, Semantic.AcquireWithin,
// resilience.Policy.Acquire). Two shapes defeat the point of a patience
// bound:
//
//   - a discarded error (expression statement or blank assignment): the
//     acquisition can time out, report a StallError — and the caller
//     proceeds as if the lock were held. The bound becomes dead code
//     and the section races its conflictors.
//   - an unbounded `for {}` loop re-attempting a bounded acquisition:
//     the StallError is handled, but by turning a blocked waiter into
//     an infinite retry storm — under a real stall this burns CPU
//     forever and amplifies the overload the patience bound was meant
//     to surface. Bound the loop, or run each attempt through
//     resilience.Policy.Run, whose breaker refuses a storm before it
//     reaches a lock.
//
// internal/core (the mechanism) is exempt; test files are not loaded by
// semlockvet.
var RetryPath = &Analyzer{
	Name: "retrypath",
	Doc:  "flags discarded bounded-acquisition errors and unbounded stall-retry loops",
	Run:  runRetryPath,
}

// namedFromPkg reports whether t (possibly behind a pointer) is the
// named type from a package whose import path ends in pkgSuffix.
func namedFromPkg(t types.Type, pkgSuffix, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), pkgSuffix)
}

// boundedAcqCall reports whether call is one of the bounded-acquisition
// entry points, and renders it for diagnostics.
func (p *Pass) boundedAcqCall(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	switch sel.Sel.Name {
	case "LockWithin", "LockBatchWithin":
		if namedFromCore(p.TypeOf(sel.X), "Txn") {
			return exprText(sel.X) + "." + sel.Sel.Name, true
		}
	case "AcquireWithin":
		if namedFromCore(p.TypeOf(sel.X), "Semantic") {
			return exprText(sel.X) + "." + sel.Sel.Name, true
		}
	case "Acquire":
		if namedFromPkg(p.TypeOf(sel.X), "internal/resilience", "Policy") {
			return exprText(sel.X) + "." + sel.Sel.Name, true
		}
	}
	return "", false
}

func runRetryPath(p *Pass) {
	if strings.HasSuffix(p.PkgPath, "internal/core") {
		return // the mechanism lives here
	}
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.ExprStmt:
				if call, ok := x.X.(*ast.CallExpr); ok {
					if name, ok := p.boundedAcqCall(call); ok {
						p.Reportf(call.Pos(),
							"%s error discarded; a timed-out acquisition returns a StallError with the lock NOT held — handle it or the patience bound is dead code",
							name)
					}
				}
			case *ast.AssignStmt:
				if len(x.Lhs) != len(x.Rhs) {
					return true
				}
				for i, rhs := range x.Rhs {
					call, ok := rhs.(*ast.CallExpr)
					if !ok || !isBlank(x.Lhs[i]) {
						continue
					}
					if name, ok := p.boundedAcqCall(call); ok {
						p.Reportf(call.Pos(),
							"%s error assigned to _; a timed-out acquisition returns a StallError with the lock NOT held — handle it or the patience bound is dead code",
							name)
					}
				}
			case *ast.ForStmt:
				if x.Cond == nil {
					p.checkUnboundedRetry(x)
				}
			}
			return true
		})
	}
}

// checkUnboundedRetry flags a `for {}` loop that re-attempts a bounded
// acquisition without delegating to resilience.Policy.Run. Function
// literals inside the loop are separate control flow (a spawned worker
// retrying is that goroutine's loop, not this one) and are skipped.
func (p *Pass) checkUnboundedRetry(loop *ast.ForStmt) {
	var acq string
	delegated := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := p.boundedAcqCall(call); ok && acq == "" {
			acq = name
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Run" &&
			namedFromPkg(p.TypeOf(sel.X), "internal/resilience", "Policy") {
			delegated = true
		}
		return true
	})
	if acq != "" && !delegated {
		p.Reportf(loop.Pos(),
			"unbounded for-loop retries %s; bound the iterations or run each attempt through resilience.Policy.Run, whose breaker refuses a retry storm before it reaches a lock",
			acq)
	}
}

// ---------------------------------------------------------------------
// occpure
// ---------------------------------------------------------------------

// OccPure checks //semlock:readonly markers. The marker, placed on a
// //semlock:atomic function, asserts that the section only observes its
// ADTs — the property that makes it eligible for the optimistic
// lock-free envelope at synth.StageOptimistic. The assertion is easy to
// break silently during maintenance: add one Put to a marked lookup and
// the synthesizer quietly stops emitting the envelope (eligibility is
// recomputed, so nothing is unsound), but the fast path the marker
// promised is gone. OccPure makes that drift loud: inside a marked
// section it flags every call to a semadt method that is not a declared
// observer of its class, and every store to package-level state. The
// real soundness certificate is internal/verify's optimistic obligation
// — this is the early, syntactic tripwire. Deliberate exceptions carry
// //semlockvet:ignore occpure -- <reason>.
//
// A core.Snapshot's Observe…Validate span is the same promise made by
// hand, marker or no marker: the reads between the two calls may be
// discarded and re-run under locks, so the same two rules hold inside
// it — observers only (of semadt classes, and of the internal/adt
// containers the apps' hand-transcribed plans call directly), and no
// store to package-level state. An Observe whose snapshot is never
// validated — no Validate follows, or its answer is discarded — is
// reported where it stands: it promises a check that does not happen.
var OccPure = &Analyzer{
	Name: "occpure",
	Doc:  "flags mutations of shared ADT state inside //semlock:readonly sections and core.Snapshot Observe…Validate spans",
	Run:  runOccPure,
}

// occObservers maps semadt class name -> spec-level observer set, built
// from the same adtspecs declarations the synthesizer's eligibility
// check consults, so the analyzer and the rewrite cannot disagree about
// what counts as an observation.
var occObservers = adtspecs.All()

// occLowerMethod mirrors gosrc's Go-name -> spec-name mapping
// (Get -> get, PutIfAbsent -> putIfAbsent).
func occLowerMethod(m string) string {
	if m == "" {
		return m
	}
	return strings.ToLower(m[:1]) + m[1:]
}

func hasDocDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == directive {
			return true
		}
	}
	return false
}

// occRootIdent unwraps selectors, indexing, derefs, and parens to the
// base identifier of an assignment target.
func occRootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func runOccPure(p *Pass) {
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if !hasDocDirective(fn.Doc, "//semlock:readonly") {
				if spans := SnapshotSpans(p.Info, fn.Body); len(spans) > 0 {
					for _, sp := range spans {
						if sp.Close == token.NoPos {
							p.Reportf(sp.Open,
								"%s.Observe in %s is never followed by a use of %s.Validate's answer; the reads it covers are taken as consistent without the check that makes them so",
								sp.Recv, fn.Name.Name, sp.Recv)
						}
					}
					p.checkOccPure(fn, "an Observe…Validate span of "+fn.Name.Name,
						func(pos token.Pos) bool { return InSnapshotSpan(spans, pos) })
				}
				continue
			}
			if !hasDocDirective(fn.Doc, "//semlock:atomic") {
				p.Reportf(fn.Pos(),
					"//semlock:readonly on %s without //semlock:atomic; the marker asserts an atomic section is observation-only",
					fn.Name.Name)
				continue
			}
			p.checkOccPure(fn, "//semlock:readonly section "+fn.Name.Name, func(token.Pos) bool { return true })
		}
	}
}

// SnapshotSpan is one transaction-free optimistic read in a function
// body: from a core.Snapshot's Observe to the Validate of the same
// receiver that decides it. This is the one statement of the span rule;
// occpure, heldwalk and interproc's guardedby all read it from here.
// Source order stands in for dominance, as it does for lock acquisitions
// throughout this package.
type SnapshotSpan struct {
	Recv string    // the receiver expression that names the snapshot
	Open token.Pos // its first Observe
	// Close is the Validate that ends the span, or NoPos when the read is
	// never validated: no Validate of Recv follows, or the one that does
	// is an expression statement and throws its answer away. Such a span
	// covers nothing.
	Close token.Pos
}

// SnapshotSpans returns the spans of body in source order.
func SnapshotSpans(info *types.Info, body ast.Node) []SnapshotSpan {
	var spans []SnapshotSpan
	open := make(map[string]int)              // receiver → index of its open span
	dropped := make(map[ast.Expr]bool)        // calls whose result is discarded
	ast.Inspect(body, func(n ast.Node) bool { // reaches calls in source order
		if st, ok := n.(*ast.ExprStmt); ok {
			dropped[st.X] = true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !namedFromCore(info.TypeOf(sel.X), "Snapshot") {
			return true
		}
		recv := exprText(sel.X)
		switch i, isOpen := open[recv]; {
		case sel.Sel.Name == "Observe" && !isOpen:
			open[recv] = len(spans)
			spans = append(spans, SnapshotSpan{Recv: recv, Open: call.Pos()})
		case sel.Sel.Name == "Validate" && isOpen:
			if !dropped[call] {
				spans[i].Close = call.Pos()
			}
			delete(open, recv)
		}
		return true
	})
	return spans
}

// InSnapshotSpan reports whether pos lies after the Observe and before
// the Validate of one of spans.
func InSnapshotSpan(spans []SnapshotSpan, pos token.Pos) bool {
	for _, sp := range spans {
		if sp.Open < pos && pos < sp.Close {
			return true
		}
	}
	return false
}

// checkOccPure applies the observers-only / no-package-store rule to
// the part of fn's body that in selects; where names it in the reports.
func (p *Pass) checkOccPure(fn *ast.FuncDecl, where string, in func(token.Pos) bool) {
	// callFuns collects every expression in call position, so a mutator
	// reference that is NOT immediately called — a method value bound to
	// a variable, deferred, or handed to go — is flagged at its capture
	// site instead of slipping through.
	callFuns := make(map[ast.Expr]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			f := c.Fun
			for {
				paren, ok := f.(*ast.ParenExpr)
				if !ok {
					break
				}
				f = paren.X
			}
			callFuns[f] = true
		}
		return true
	})
	// classOf returns the spec class of a receiver expression: the type
	// name of a semadt wrapper, or that of the internal/adt container
	// behind one (adt.HashMap implements Map, adt.HashSet implements Set;
	// the others share their class's name).
	classOf := func(e ast.Expr) (class string, wrapper, ok bool) {
		t := p.TypeOf(e)
		if t == nil {
			return "", false, false
		}
		if ptr, isPtr := t.(*types.Pointer); isPtr {
			t = ptr.Elem()
		}
		n, isNamed := t.(*types.Named)
		if !isNamed || n.Obj().Pkg() == nil {
			return "", false, false
		}
		switch path := n.Obj().Pkg().Path(); {
		case strings.HasSuffix(path, "internal/semadt"):
			return n.Obj().Name(), true, true
		case strings.HasSuffix(path, "internal/adt"):
			return strings.TrimPrefix(n.Obj().Name(), "Hash"), false, true
		}
		return "", false, false
	}
	// mutates reports whether Go method name of class is anything but a
	// declared observer. A semadt wrapper exports exactly its spec's
	// methods, so what the spec does not name is held against it; an adt
	// container also has walks and accessors no spec names, and those
	// are heldwalk's and guardedby's to judge.
	mutates := func(class string, wrapper bool, name string) bool {
		spec := occObservers[class]
		if spec == nil {
			return wrapper
		}
		m := occLowerMethod(name)
		if _, declared := spec.Method(m); !declared {
			return wrapper
		}
		return !spec.IsObserver(m)
	}
	isPkgLevel := func(id *ast.Ident) bool {
		obj := p.Info.Uses[id]
		v, ok := obj.(*types.Var)
		return ok && v.Parent() == p.Pkg.Scope()
	}
	flagStore := func(lhs ast.Expr) {
		if id := occRootIdent(lhs); id != nil && isPkgLevel(id) {
			p.Reportf(lhs.Pos(),
				"store to package-level %s inside %s; an optimistic read may run this code and discard it, so it must not write shared state",
				id.Name, where)
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if n == nil || !in(n.Pos()) {
			return true
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			class, wrapper, ok := classOf(sel.X)
			if !ok || sel.Sel.Name == "Sem" {
				return true
			}
			if mutates(class, wrapper, sel.Sel.Name) {
				p.Reportf(x.Pos(),
					"call %s.%s mutates %s state inside %s; an optimistic read only observes — move the mutation out, or make the section pessimistic",
					exprText(sel.X), sel.Sel.Name, class, where)
			}
		case *ast.SelectorExpr:
			// A method value (m.Put) or method expression
			// ((*semadt.Map).Put) escaping call position: the mutator
			// can then run through defer, go, or any later call, out of
			// sight of the CallExpr case above.
			if callFuns[x] || x.Sel.Name == "Sem" {
				return true
			}
			class, wrapper, ok := classOf(x.X)
			if !ok {
				return true
			}
			if sel, isSel := p.Info.Selections[x]; isSel {
				if _, isFunc := sel.Obj().(*types.Func); !isFunc {
					return true
				}
			} else if _, isFunc := p.Info.Uses[x.Sel].(*types.Func); !isFunc {
				return true
			}
			if mutates(class, wrapper, x.Sel.Name) {
				p.Reportf(x.Pos(),
					"method value %s.%s captures a mutator of %s inside %s; deferred or spawned, it still mutates state an optimistic read may discard",
					exprText(x.X), x.Sel.Name, class, where)
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				flagStore(lhs)
			}
		case *ast.IncDecStmt:
			flagStore(x.X)
		}
		return true
	})
}

// ---------------------------------------------------------------------
// boxonce
// ---------------------------------------------------------------------

// BoxOnce flags a variable boxed into core.Value more than once inside
// one atomic section. core.Value is an interface, so handing a string
// or an integer variable to the selector and then to each map operation
// heap-allocates a copy per use; the section should box the key once,
// before it starts, and pass the boxed value around (the apps' V forms
// are that idiom). In its smallest form the check is syntactic: inside
// a function literal passed to core.Atomically or resilience.Policy.Run
// — nested literals included, they are the same section — it counts,
// per variable, the plain-identifier arguments whose parameter is the
// empty interface on a callee declared under internal/, plus explicit
// core.Value(x) conversions, and reports the second one. Variables that
// are already interfaces or whose boxing is free (pointers, channels,
// maps, funcs) are not counted. Generated files are skipped: the fix
// for those belongs in the generator.
var BoxOnce = &Analyzer{
	Name: "boxonce",
	Doc:  "flags a key variable converted to core.Value more than once inside one atomic section",
	Run:  runBoxOnce,
}

func runBoxOnce(p *Pass) {
	for _, file := range p.Files {
		if ast.IsGenerated(file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !p.isSectionCall(call) {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					p.checkBoxOnce(lit)
				}
			}
			return true
		})
	}
}

// isSectionCall reports whether call is core.Atomically(...) or
// (*resilience.Policy).Run(...).
func (p *Pass) isSectionCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Atomically":
		fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
		return ok && fn.Pkg() != nil && strings.HasSuffix(fn.Pkg().Path(), "internal/core")
	case "Run":
		return namedFromPkg(p.TypeOf(sel.X), "internal/resilience", "Policy")
	}
	return false
}

// boxedVar returns the variable e names when boxing it allocates.
func (p *Pass) boxedVar(e ast.Expr) *types.Var {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := p.Info.Uses[id].(*types.Var)
	if !ok {
		return nil
	}
	switch v.Type().Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return nil
	}
	return v
}

func isEmptyInterface(t types.Type) bool {
	i, ok := t.Underlying().(*types.Interface)
	return ok && i.Empty()
}

func (p *Pass) checkBoxOnce(section *ast.FuncLit) {
	seen := map[*types.Var]int{}
	box := func(e ast.Expr) {
		v := p.boxedVar(e)
		if v == nil {
			return
		}
		if seen[v]++; seen[v] == 2 {
			p.Reportf(e.Pos(),
				"%s is converted to core.Value again inside one atomic section; box it once before the section and pass the boxed value",
				v.Name())
		}
	}
	ast.Inspect(section.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
			if len(call.Args) == 1 && isEmptyInterface(tv.Type) {
				box(call.Args[0])
			}
			return true
		}
		sig, ok := p.TypeOf(call.Fun).(*types.Signature)
		if !ok || !p.calleeUnderInternal(call.Fun) {
			return true
		}
		for i, arg := range call.Args {
			var param types.Type
			switch last := sig.Params().Len() - 1; {
			case sig.Variadic() && i >= last:
				if call.Ellipsis.IsValid() {
					continue // f(xs...): no per-element conversion here
				}
				param = sig.Params().At(last).Type().(*types.Slice).Elem()
			default:
				param = sig.Params().At(i).Type()
			}
			if isEmptyInterface(param) {
				box(arg)
			}
		}
		return true
	})
}

// calleeUnderInternal reports whether fun names a function, method or
// func-typed variable declared in one of this module's internal
// packages — the surfaces whose `any` parameters are core.Value.
func (p *Pass) calleeUnderInternal(fun ast.Expr) bool {
	var id *ast.Ident
	switch x := fun.(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return false
	}
	obj := p.Info.Uses[id]
	return obj != nil && obj.Pkg() != nil && strings.Contains(obj.Pkg().Path(), "internal/")
}

// ---------------------------------------------------------------------
// heldwalk
// ---------------------------------------------------------------------

// HeldWalk checks the callers of the adt package's *Held methods
// (HashMap.RangeHeld). Such a walk takes no lock of the container's
// own: it is sound only while the caller holds a lock that keeps every
// writer of the instance out — a semantic mode for which
// ModeTable.ExcludesMutators holds, or an exclusive / reader-side lock
// every writer takes. Whether the held mode is the right one is
// derived where the mode table is built (gossip.NewOurs panics
// otherwise); what can be lost silently in maintenance is the
// acquisition itself, and that is syntactic:
//
//   - the call must be preceded, in source order inside its section body
//     — the function literal handed to core.Atomically or
//     resilience.Policy.Run, else the enclosing function declaration
//     (a helper taking the *core.Txn, or a baseline's method) — by a
//     Txn.Lock*, a Policy.Acquire*, or a lock call of internal/cc or
//     sync;
//   - it must not sit inside a Txn.TryOptimistic body, nor between a
//     core.Snapshot's Observe and its Validate: an optimistic observer
//     holds nothing, so nothing keeps a writer out of the walk.
//
// That every operation on the instance is dominated by an acquisition
// on the right Semantic is guardedby's obligation, unchanged — to it a
// *Held method is one more adt operation. internal/adt, where the
// methods and their contract live, is exempt.
var HeldWalk = &Analyzer{
	Name: "heldwalk",
	Doc:  "flags adt *Held walks with no preceding lock acquisition in their section, or inside a TryOptimistic body or a core.Snapshot Observe…Validate span",
	Run:  runHeldWalk,
}

// calleeFunc returns the declared function or method a call invokes.
func (p *Pass) calleeFunc(call *ast.CallExpr) *types.Func {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, _ := p.Info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	return fn
}

// isHeldCall reports whether call invokes a *Held method of internal/adt.
func (p *Pass) isHeldCall(call *ast.CallExpr) bool {
	fn := p.calleeFunc(call)
	return fn != nil && strings.HasSuffix(fn.Name(), "Held") &&
		strings.HasSuffix(fn.Pkg().Path(), "internal/adt") &&
		fn.Type().(*types.Signature).Recv() != nil
}

// isAcquisition reports whether call takes a lock a held walk can rest
// on: Txn.Lock*, Policy.Acquire*, or Lock/RLock/LockOrdered/Enter of a
// type from sync or internal/cc.
func (p *Pass) isAcquisition(call *ast.CallExpr) bool {
	fn := p.calleeFunc(call)
	if fn == nil {
		return false
	}
	recv := p.TypeOf(call.Fun.(*ast.SelectorExpr).X)
	switch name := fn.Name(); {
	case strings.HasPrefix(name, "Lock") && namedFromCore(recv, "Txn"):
		return true
	case strings.HasPrefix(name, "Acquire") && namedFromPkg(recv, "internal/resilience", "Policy"):
		return true
	case name == "Lock" || name == "RLock" || name == "LockOrdered" || name == "Enter":
		path := fn.Pkg().Path()
		return path == "sync" || strings.HasSuffix(path, "internal/cc")
	}
	return false
}

// isTryOptimistic reports whether call is (*core.Txn).TryOptimistic(...).
func (p *Pass) isTryOptimistic(call *ast.CallExpr) bool {
	fn := p.calleeFunc(call)
	return fn != nil && fn.Name() == "TryOptimistic" &&
		namedFromCore(p.TypeOf(call.Fun.(*ast.SelectorExpr).X), "Txn")
}

func runHeldWalk(p *Pass) {
	if strings.HasSuffix(p.PkgPath, "internal/adt") {
		return // the walks and their contract live here
	}
	for _, file := range p.Files {
		var stack []ast.Node
		var spans []SnapshotSpan // of the function declaration being walked
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			if fn, ok := n.(*ast.FuncDecl); ok && fn.Body != nil {
				spans = SnapshotSpans(p.Info, fn.Body)
			}
			if call, ok := n.(*ast.CallExpr); ok && p.isHeldCall(call) {
				p.checkHeldWalk(call, stack, spans)
			}
			return true
		})
	}
}

// checkHeldWalk finds held's section body among its ancestors —
// innermost first: a literal handed to a section call, else the function
// declaration — and requires an acquisition before it there.
func (p *Pass) checkHeldWalk(held *ast.CallExpr, ancestors []ast.Node, spans []SnapshotSpan) {
	name := exprText(held.Fun)
	if InSnapshotSpan(spans, held.Pos()) {
		p.Reportf(held.Pos(),
			"%s between a core.Snapshot's Observe and its Validate: an optimistic observer holds no mode, so nothing keeps a writer out of the walk; use the locking walk there, or move the call to the pessimistic path",
			name)
		return
	}
	var body *ast.BlockStmt
	for i := len(ancestors) - 1; i >= 0 && body == nil; i-- {
		switch fn := ancestors[i].(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			outer, ok := ancestors[i-1].(*ast.CallExpr)
			if !ok {
				continue // a plain closure: part of the body around it
			}
			if p.isTryOptimistic(outer) {
				p.Reportf(held.Pos(),
					"%s inside a TryOptimistic body: an optimistic observer holds no mode, so nothing keeps a writer out of the walk; use the locking walk there, or move the call to the pessimistic path",
					name)
				return
			}
			if p.isSectionCall(outer) {
				body = fn.Body
			}
		}
	}
	if body == nil {
		return // a package-level initializer: no section to speak of
	}
	locked := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && call.Pos() < held.Pos() && p.isAcquisition(call) {
			locked = true
		}
		return !locked
	})
	if !locked {
		p.Reportf(held.Pos(),
			"%s is not preceded by a lock acquisition in its section; a *Held walk takes no lock of its own — first take a mode that excludes every mutator (Txn.Lock*, Policy.Acquire*) or the cc/sync lock every writer takes",
			name)
	}
}
