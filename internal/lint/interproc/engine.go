package interproc

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint"
)

// funcKey canonically names a function or method across separately
// type-checked packages. lint.Load type-checks every package with its
// own run of the source importer, so the *types.Func for
// repro/internal/adt.(*HashMap).Put seen from package A is a different
// object than the one seen from package B; the rendered
// "pkgpath.(*Recv).Name" string is the identity that survives.
type funcKey string

// origin classifies where an ADT-typed value came from, the top of the
// instance-flow lattice. Everything except a never-escaping local
// construction is conservatively shared.
type originKind int

const (
	originShared originKind = iota // param, field, global, unknown producer
	originLocal                    // constructed here by an adt/semadt constructor
)

// valInfo tracks one ADT-typed local (or parameter) of a function.
type valInfo struct {
	kind      originKind
	why       string    // human description for the witness
	escapePos token.Pos // earliest point the value escapes this function (NoPos = never)
	escapeWhy string
}

// opSite is one call to a semantic-ADT operation.
type opSite struct {
	pos     token.Pos
	pkg     *lint.Package
	recv    string // rendered receiver expression
	class   string // receiver type, e.g. "adt.HashMap"
	method  string
	guarded bool // dominated by a section entry or local guard acquisition
	spawned bool // inside a goroutine/escaping literal: outside any enclosing section
	shared  bool // receiver may be visible to other goroutines at this point
	flow    string
}

// callEdge is one statically resolved call.
type callEdge struct {
	callee  funcKey
	pos     token.Pos
	guarded bool
	isGo    bool
}

// funcInfo is the per-function summary.
type funcInfo struct {
	key      funcKey
	pkg      *lint.Package
	decl     *ast.FuncDecl
	name     string // display name, e.g. "(*Ours).Get"
	exported bool
	isMain   bool // main() or init() in package main (or any init)
	// sectionGuarded: the whole body runs inside a section — the decl
	// carries //semlock:atomic, or the function itself is passed to
	// core.Atomically.
	sectionGuarded bool
	hasTxnParam    bool // receives *core.Txn: obligation transfers to callers
	rootCause      string

	ops      []*opSite
	calls    []*callEdge
	topScope *rankScope
	scopes   []*rankScope
}

type program struct {
	pkgs  []*lint.Package
	funcs map[funcKey]*funcInfo
	order []funcKey
}

// exemptPkg: packages whose own bodies are the implementation of the
// checked machinery rather than clients of it.
func exemptPkg(path string) bool {
	for _, suf := range []string{
		"internal/adt", "internal/semadt", "internal/cc",
		"internal/core", "internal/lint",
	} {
		if strings.HasSuffix(path, suf) {
			return true
		}
	}
	return false
}

func buildProgram(pkgs []*lint.Package) *program {
	p := &program{pkgs: pkgs, funcs: make(map[funcKey]*funcInfo)}
	// Pass 1: register every declared function so call edges can point
	// at not-yet-scanned callees.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				key := keyOf(obj)
				fi := &funcInfo{
					key:      key,
					pkg:      pkg,
					decl:     fd,
					name:     displayName(fd, pkg),
					exported: ast.IsExported(fd.Name.Name),
					isMain: fd.Name.Name == "init" ||
						(fd.Name.Name == "main" && pkg.Types.Name() == "main"),
					hasTxnParam: signatureTakesTxn(obj),
					topScope:    &rankScope{},
				}
				if lint.HasDirective(fd.Doc, "//semlock:atomic") {
					fi.sectionGuarded = true
				}
				p.funcs[key] = fi
				p.order = append(p.order, key)
			}
		}
	}
	sort.Slice(p.order, func(i, j int) bool { return p.order[i] < p.order[j] })
	// Pass 2: scan bodies (op sites, call edges, rank scopes, escapes).
	for _, key := range p.order {
		fi := p.funcs[key]
		s := &scanner{p: p, pkg: fi.pkg, fi: fi, vals: make(map[types.Object]*valInfo),
			spans: lint.SnapshotSpans(fi.pkg.Info, fi.decl.Body)}
		s.prepass()
		ctx := &guardCtx{guarded: fi.sectionGuarded, scope: fi.topScope}
		s.scanStmts(fi.decl.Body.List, ctx)
		fi.scopes = append([]*rankScope{fi.topScope}, fi.scopes...)
	}
	return p
}

// keyOf renders the canonical cross-package identity of fn.
func keyOf(fn *types.Func) funcKey {
	if fn.Pkg() == nil {
		return funcKey("builtin." + fn.Name())
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := ""
		if pt, ok := t.(*types.Pointer); ok {
			t = pt.Elem()
			ptr = "*"
		}
		name := "?"
		if n, ok := t.(*types.Named); ok {
			name = n.Obj().Name()
		}
		return funcKey(fn.Pkg().Path() + ".(" + ptr + name + ")." + fn.Name())
	}
	return funcKey(fn.Pkg().Path() + "." + fn.Name())
}

func displayName(fd *ast.FuncDecl, pkg *lint.Package) string {
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		return "(" + lint.ExprText(fd.Recv.List[0].Type) + ")." + fd.Name.Name
	}
	return pkg.Types.Name() + "." + fd.Name.Name
}

func signatureTakesTxn(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if lint.IsNamed(sig.Params().At(i).Type(), "internal/core", "Txn") {
			return true
		}
	}
	return false
}

// isADTType renders t's class ("adt.HashMap", "semadt.Map") when it is
// a semantic-ADT type.
func isADTType(t types.Type) (string, bool) {
	if name, ok := lint.NamedFrom(t, "internal/adt"); ok {
		return "adt." + name, true
	}
	if name, ok := lint.NamedFrom(t, "internal/semadt"); ok {
		return "semadt." + name, true
	}
	return "", false
}

// ---- the per-function scanner ----

type guardCtx struct {
	guarded   bool // inside a section-entry literal (lint.IsSectionEntry) or a section-guarded decl
	guardSeen bool // a local guard acquisition appeared earlier in source order
	spawned   bool // inside a go-statement literal or a literal that escapes
	scope     *rankScope
}

type scanner struct {
	p     *program
	pkg   *lint.Package
	fi    *funcInfo
	vals  map[types.Object]*valInfo
	spans []lint.SnapshotSpan // the declaration's core.Snapshot Observe…Validate spans
}

// covered reports whether an operation at pos is protected: by an
// enclosing section, by an earlier guard acquisition, or by lying
// between a core.Snapshot's Observe and the Validate that decides it —
// the guard context of a TryOptimistic literal without the literal. An
// operation before the Observe or after the Validate, or behind an
// Observe that is never validated, is as naked as it would be outside
// the literal.
func (s *scanner) covered(ctx *guardCtx, pos token.Pos) bool {
	return ctx.guarded || ctx.guardSeen || lint.InSnapshotSpan(s.spans, pos)
}

// prepass seeds the instance-flow lattice: classify every ADT-typed
// parameter and local, and record the earliest escape of each locally
// constructed instance (captured by a spawned/escaping literal, stored
// through a selector or index, sent on a channel, returned, or passed
// to another function).
func (s *scanner) prepass() {
	fd := s.fi.decl
	seed := func(fl *ast.FieldList, why string) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				obj := s.pkg.Info.Defs[name]
				if obj == nil {
					continue
				}
				if _, ok := isADTType(obj.Type()); ok {
					s.vals[obj] = &valInfo{kind: originShared, why: why}
				}
			}
		}
	}
	seed(fd.Recv, "receiver")
	seed(fd.Type.Params, "parameter (callers may share the instance)")

	classify := func(lhs, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		obj := s.pkg.Info.Defs[id]
		if obj == nil {
			obj = s.pkg.Info.Uses[id] // re-assignment of an existing local
		}
		if obj == nil {
			return
		}
		if _, ok := isADTType(obj.Type()); !ok {
			return
		}
		if prev, seen := s.vals[obj]; seen && prev.kind == originShared {
			return // once shared, stays shared
		}
		if rhs != nil && isConstructorCall(s.pkg, rhs) {
			s.vals[obj] = &valInfo{kind: originLocal, why: "constructed locally"}
			return
		}
		s.vals[obj] = &valInfo{kind: originShared, why: "produced by an untracked expression"}
	}

	escape := func(e ast.Expr, pos token.Pos, why string) {
		id, ok := e.(*ast.Ident)
		if !ok {
			return
		}
		obj := s.pkg.Info.Uses[id]
		if obj == nil {
			return
		}
		if v, tracked := s.vals[obj]; tracked && v.kind == originLocal {
			if v.escapePos == token.NoPos || pos < v.escapePos {
				v.escapePos = pos
				v.escapeWhy = why
			}
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				classify(lhs, rhs)
				// A store through a selector/index publishes the RHS.
				if _, isIdent := lhs.(*ast.Ident); !isIdent && rhs != nil {
					escape(rhs, n.Pos(), "stored into "+lint.ExprText(lhs))
				}
			}
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for i, name := range vs.Names {
							var rhs ast.Expr
							if i < len(vs.Values) {
								rhs = vs.Values[i]
							}
							classify(name, rhs)
						}
					}
				}
			}
		case *ast.SendStmt:
			escape(n.Value, n.Pos(), "sent on a channel")
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				escape(r, n.Pos(), "returned to the caller")
			}
		case *ast.CallExpr:
			if isConstructorCall(s.pkg, n) {
				return true
			}
			for _, a := range n.Args {
				escape(a, n.Pos(), "passed to "+lint.ExprText(n.Fun))
			}
		case *ast.GoStmt:
			// Captures inside the spawned literal escape; the literal
			// case below covers the idents. The call's direct args
			// escape too.
			for _, a := range n.Call.Args {
				escape(a, n.Pos(), "handed to a spawned goroutine")
			}
		case *ast.FuncLit:
			switch litClass(s.pkg, fd.Body, n) {
			case litInherits, litSection:
				return true // runs synchronously: captures are not escapes
			}
			pos := n.Pos()
			ast.Inspect(n.Body, func(inner ast.Node) bool {
				if id, ok := inner.(*ast.Ident); ok {
					escape(id, pos, "captured by an escaping func literal")
				}
				return true
			})
			return true
		}
		return true
	})
}

// litClass classifies how a func literal relates to its enclosing
// guard context.
type litKind int

const (
	litEscapes  litKind = iota // go target, assigned, passed to an opaque call
	litInherits                // deferred or immediately invoked: same goroutine, same section
	litSection                 // argument of a section entry (lint.IsSectionEntry): starts/continues a section
)

// litClass finds the immediate use of lit inside body. Linear in the
// body size, but bodies are small and this runs once per literal.
func litClass(pkg *lint.Package, body *ast.BlockStmt, lit *ast.FuncLit) litKind {
	kind := litEscapes
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if n.Call.Fun == lit {
				kind = litEscapes
				return false
			}
		case *ast.DeferStmt:
			if n.Call.Fun == lit {
				kind = litInherits
				return false
			}
		case *ast.CallExpr:
			if n.Fun == lit {
				kind = litInherits // immediately invoked
				return false
			}
			for _, a := range n.Args {
				if a == lit {
					if lint.IsSectionEntry(pkg.Info, n) {
						kind = litSection
					} else {
						kind = litEscapes
					}
					return false
				}
			}
		}
		return true
	})
	return kind
}

// isConstructorCall reports whether e constructs a fresh ADT instance:
// a call to a package-level function of internal/adt or internal/semadt
// (their exported constructors are the only such functions), or a
// composite literal of an ADT type.
func isConstructorCall(pkg *lint.Package, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CallExpr:
		sel, ok := e.Fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		if _, isMethod := pkg.Info.Selections[sel]; isMethod {
			return false
		}
		fn, _ := pkg.Info.Uses[sel.Sel].(*types.Func)
		if fn == nil || fn.Pkg() == nil {
			return false
		}
		path := fn.Pkg().Path()
		return strings.HasSuffix(path, "internal/adt") || strings.HasSuffix(path, "internal/semadt")
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return isConstructorCall(pkg, e.X)
		}
	case *ast.CompositeLit:
		_, ok := isADTType(pkg.Info.TypeOf(e))
		return ok
	}
	return false
}

// ---- guard-relevant call classification ----

// guard method sets, keyed by receiver type.
var (
	txnGuardMethods = map[string]bool{
		"Lock": true, "LockWithin": true, "LockBatch": true, "LockBatchWithin": true,
		"LockOrdered": true, "Observe": true,
	}
	semGuardMethods = map[string]bool{"Acquire": true, "TryAcquire": true}
	ccGuardMethods  = map[string]map[string]bool{
		"GlobalLock": {"Enter": true},
		"TwoPL":      {"Lock": true, "LockOrdered": true},
		"Striped": {
			"Lock": true, "RLock": true, "LockAll": true,
		},
	}
	// Hand-optimized baselines guard ADT compounds with raw stdlib
	// mutexes (gossip's per-group RWMutex, for example). Those are
	// certified the same way as internal/cc: the obligation is "some
	// mutual-exclusion discipline dominates the op", not "the discipline
	// is ours".
	syncGuardMethods = map[string]map[string]bool{
		"Mutex":   {"Lock": true, "TryLock": true},
		"RWMutex": {"Lock": true, "RLock": true, "TryLock": true, "TryRLock": true},
	}
)

// isGuardAcquire: a call that certifies the following source-order
// statements of the current function as protected — a Txn acquisition,
// a raw Semantic acquisition (hand-transcribed plan), or an
// internal/cc baseline guard.
func isGuardAcquire(pkg *lint.Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	selObj, isMethod := pkg.Info.Selections[sel]
	if !isMethod {
		return false
	}
	fn, _ := selObj.Obj().(*types.Func)
	if fn == nil {
		return false
	}
	recv := selObj.Recv()
	if lint.IsNamed(recv, "internal/core", "Txn") && txnGuardMethods[fn.Name()] {
		return true
	}
	if lint.IsNamed(recv, "internal/core", "Semantic") && semGuardMethods[fn.Name()] {
		return true
	}
	if n, ok := lint.NamedFrom(recv, "internal/cc"); ok {
		if set := ccGuardMethods[n]; set != nil && set[fn.Name()] {
			return true
		}
	}
	if n, ok := lint.NamedFrom(recv, "sync"); ok {
		if set := syncGuardMethods[n]; set != nil && set[fn.Name()] {
			return true
		}
	}
	return false
}

// adtOp reports whether call is a semantic-ADT operation and describes
// it. Sem() is the wiring accessor, not an operation on the state.
func adtOp(pkg *lint.Package, call *ast.CallExpr) (recv ast.Expr, class, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", "", false
	}
	selObj, isMethod := pkg.Info.Selections[sel]
	if !isMethod {
		return nil, "", "", false
	}
	fn, _ := selObj.Obj().(*types.Func)
	if fn == nil || fn.Name() == "Sem" {
		return nil, "", "", false
	}
	class, isADT := isADTType(selObj.Recv())
	if !isADT {
		return nil, "", "", false
	}
	return sel.X, class, fn.Name(), true
}

// resolveCallee statically resolves a call's target, or "" for dynamic
// calls (interface dispatch, function values).
func resolveCallee(pkg *lint.Package, call *ast.CallExpr) funcKey {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return keyOf(fn)
		}
	case *ast.SelectorExpr:
		if selObj, isMethod := pkg.Info.Selections[fun]; isMethod {
			if fn, ok := selObj.Obj().(*types.Func); ok {
				if _, isIface := selObj.Recv().Underlying().(*types.Interface); isIface {
					return "" // dynamic dispatch
				}
				return keyOf(fn)
			}
			return ""
		}
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return keyOf(fn)
		}
	}
	return ""
}

// ---- ordered body walk ----

func (s *scanner) scanStmts(list []ast.Stmt, ctx *guardCtx) {
	for _, st := range list {
		s.scanStmt(st, ctx)
	}
}

func (s *scanner) scanStmt(st ast.Stmt, ctx *guardCtx) {
	switch st := st.(type) {
	case *ast.BlockStmt:
		s.scanStmts(st.List, ctx)
	case *ast.ExprStmt:
		s.scanExpr(st.X, ctx)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			s.scanExpr(e, ctx)
		}
		for _, e := range st.Lhs {
			if _, isIdent := e.(*ast.Ident); !isIdent {
				s.scanExpr(e, ctx)
			}
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						s.scanExpr(v, ctx)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			s.scanExpr(e, ctx)
		}
	case *ast.IfStmt:
		if st.Init != nil {
			s.scanStmt(st.Init, ctx)
		}
		s.scanExpr(st.Cond, ctx)
		// Branch-aware rank scoping: each arm sees the same prefix but
		// not each other, so then-only and else-only acquisitions never
		// produce a spurious mutual order.
		branch := &rankBranch{}
		outer := ctx.scope
		thenScope := &rankScope{}
		ctx.scope = thenScope
		s.scanStmts(st.Body.List, ctx)
		branch.alts = append(branch.alts, thenScope.items)
		if st.Else != nil {
			elseScope := &rankScope{}
			ctx.scope = elseScope
			s.scanStmt(st.Else, ctx)
			branch.alts = append(branch.alts, elseScope.items)
		}
		ctx.scope = outer
		if len(branch.alts[0]) > 0 || (len(branch.alts) > 1 && len(branch.alts[1]) > 0) {
			s.emit(ctx, branch)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			s.scanStmt(st.Init, ctx)
		}
		if st.Cond != nil {
			s.scanExpr(st.Cond, ctx)
		}
		if st.Post != nil {
			s.scanStmt(st.Post, ctx)
		}
		s.scanStmts(st.Body.List, ctx)
	case *ast.RangeStmt:
		s.scanExpr(st.X, ctx)
		s.scanStmts(st.Body.List, ctx)
	case *ast.SwitchStmt:
		if st.Init != nil {
			s.scanStmt(st.Init, ctx)
		}
		if st.Tag != nil {
			s.scanExpr(st.Tag, ctx)
		}
		s.scanClauses(st.Body.List, ctx, func(c ast.Stmt, inner *guardCtx) []ast.Stmt {
			cc, ok := c.(*ast.CaseClause)
			if !ok {
				return nil
			}
			for _, e := range cc.List {
				s.scanExpr(e, inner)
			}
			return cc.Body
		})
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			s.scanStmt(st.Init, ctx)
		}
		s.scanStmt(st.Assign, ctx)
		s.scanClauses(st.Body.List, ctx, func(c ast.Stmt, inner *guardCtx) []ast.Stmt {
			cc, ok := c.(*ast.CaseClause)
			if !ok {
				return nil
			}
			return cc.Body
		})
	case *ast.SelectStmt:
		s.scanClauses(st.Body.List, ctx, func(c ast.Stmt, inner *guardCtx) []ast.Stmt {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				return nil
			}
			if cc.Comm != nil {
				s.scanStmt(cc.Comm, inner)
			}
			return cc.Body
		})
	case *ast.SendStmt:
		s.scanExpr(st.Chan, ctx)
		s.scanExpr(st.Value, ctx)
	case *ast.GoStmt:
		s.scanGo(st, ctx)
	case *ast.DeferStmt:
		s.scanDefer(st, ctx)
	case *ast.LabeledStmt:
		s.scanStmt(st.Stmt, ctx)
	case *ast.IncDecStmt:
		s.scanExpr(st.X, ctx)
	}
}

// scanClauses walks switch/select clause bodies as alternatives: like
// the arms of an if, the clauses of one switch extend the same rank
// prefix but impose no acquisition order on each other.
func (s *scanner) scanClauses(clauses []ast.Stmt, ctx *guardCtx, body func(ast.Stmt, *guardCtx) []ast.Stmt) {
	branch := &rankBranch{}
	outer := ctx.scope
	any := false
	for _, c := range clauses {
		clauseScope := &rankScope{}
		ctx.scope = clauseScope
		stmts := body(c, ctx)
		s.scanStmts(stmts, ctx)
		if len(clauseScope.items) > 0 {
			any = true
		}
		branch.alts = append(branch.alts, clauseScope.items)
	}
	ctx.scope = outer
	if any {
		s.emit(ctx, branch)
	}
}

// scanGo: the spawned body runs outside any enclosing section — its
// operations are flagged regardless of how the spawner is reached, and
// a named target becomes an entry point of the exposure analysis.
func (s *scanner) scanGo(st *ast.GoStmt, ctx *guardCtx) {
	for _, a := range st.Call.Args {
		s.scanExpr(a, ctx)
	}
	if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
		s.scanStmts(lit.Body.List, &guardCtx{spawned: true, scope: &rankScope{}})
		return
	}
	if callee := resolveCallee(s.pkg, st.Call); callee != "" {
		s.fi.calls = append(s.fi.calls, &callEdge{callee: callee, pos: st.Pos(), isGo: true})
	}
}

func (s *scanner) scanDefer(st *ast.DeferStmt, ctx *guardCtx) {
	for _, a := range st.Call.Args {
		s.scanExpr(a, ctx)
	}
	if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
		// A deferred literal runs on the same goroutine before the
		// section epilogue releases the locks, so it inherits the
		// current context (snapshot at the defer site — conservative).
		inner := *ctx
		s.scanStmts(lit.Body.List, &inner)
		return
	}
	s.recordCall(st.Call, ctx)
}

func (s *scanner) scanExpr(e ast.Expr, ctx *guardCtx) {
	switch e := e.(type) {
	case nil:
	case *ast.CallExpr:
		s.scanCall(e, ctx)
	case *ast.FuncLit:
		// A literal reaching here was not consumed by a recognized
		// call shape: it is assigned, returned, or passed onward, and
		// may run on any goroutine at any time.
		s.scanStmts(e.Body.List, &guardCtx{spawned: true, scope: &rankScope{}})
	case *ast.Ident:
		if fn, ok := s.pkg.Info.Uses[e].(*types.Func); ok {
			s.p.markValueRef(keyOf(fn))
		}
	case *ast.SelectorExpr:
		if selObj, isMethod := s.pkg.Info.Selections[e]; isMethod && selObj.Kind() == types.MethodVal {
			if fn, ok := selObj.Obj().(*types.Func); ok {
				s.p.markValueRef(keyOf(fn))
			}
		} else if fn, ok := s.pkg.Info.Uses[e.Sel].(*types.Func); ok {
			s.p.markValueRef(keyOf(fn))
		}
		s.scanExpr(e.X, ctx)
	case *ast.ParenExpr:
		s.scanExpr(e.X, ctx)
	case *ast.UnaryExpr:
		s.scanExpr(e.X, ctx)
	case *ast.BinaryExpr:
		s.scanExpr(e.X, ctx)
		s.scanExpr(e.Y, ctx)
	case *ast.StarExpr:
		s.scanExpr(e.X, ctx)
	case *ast.IndexExpr:
		s.scanExpr(e.X, ctx)
		s.scanExpr(e.Index, ctx)
	case *ast.SliceExpr:
		s.scanExpr(e.X, ctx)
		s.scanExpr(e.Low, ctx)
		s.scanExpr(e.High, ctx)
		s.scanExpr(e.Max, ctx)
	case *ast.TypeAssertExpr:
		s.scanExpr(e.X, ctx)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				s.scanExpr(kv.Value, ctx)
				continue
			}
			s.scanExpr(el, ctx)
		}
	case *ast.KeyValueExpr:
		s.scanExpr(e.Value, ctx)
	}
}

func (s *scanner) scanCall(call *ast.CallExpr, ctx *guardCtx) {
	// 1. Section entries: the literal body is guarded and gets its own
	// rank scope. Atomically starts a fresh transaction; TryOptimistic
	// runs on the enclosing one, but its Observe events never advance
	// the rank watermark and are discarded before any fallback locks
	// (core.Txn.TryOptimistic empties its snapshot), so for ordering
	// purposes the body is an isolated alternative too. The resilience
	// layer's Policy.Run runs its closure inside core.Atomically, on a
	// fresh transaction, so the same applies.
	if lint.IsSectionEntry(s.pkg.Info, call) {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			s.scanExpr(sel.X, ctx)
		}
		for _, a := range call.Args {
			if lit, ok := a.(*ast.FuncLit); ok {
				inner := &guardCtx{guarded: true, spawned: ctx.spawned, scope: &rankScope{}}
				s.fi.scopes = append(s.fi.scopes, inner.scope)
				s.scanStmts(lit.Body.List, inner)
				continue
			}
			// A named function passed whole to Atomically runs
			// entirely inside the section.
			if fn := funcRefOf(s.pkg, a); fn != "" {
				s.p.markSectionGuarded(fn)
				continue
			}
			s.scanExpr(a, ctx)
		}
		return
	}

	// 2. Guard acquisitions certify subsequent statements; Txn lock
	// calls additionally contribute rank events.
	if isGuardAcquire(s.pkg, call) {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			s.scanExpr(sel.X, ctx)
		}
		for _, a := range call.Args {
			s.scanExpr(a, ctx)
		}
		s.recordRankEvents(call, ctx)
		ctx.guardSeen = true
		return
	}

	// 3. ADT operations.
	if recvExpr, class, method, ok := adtOp(s.pkg, call); ok {
		site := &opSite{
			pos:     call.Pos(),
			pkg:     s.pkg,
			recv:    lint.ExprText(recvExpr),
			class:   class,
			method:  method,
			guarded: s.covered(ctx, call.Pos()),
			spawned: ctx.spawned,
			shared:  true,
			flow:    "receiver " + lint.ExprText(recvExpr) + " may be shared",
		}
		if id, isIdent := recvExpr.(*ast.Ident); isIdent {
			if obj := s.pkg.Info.Uses[id]; obj != nil {
				if v, tracked := s.vals[obj]; tracked {
					switch {
					case v.kind == originLocal && v.escapePos == token.NoPos:
						site.shared = false
						site.flow = "receiver " + id.Name + " is thread-local (" + v.why + ", never escapes)"
					case v.kind == originLocal && call.Pos() < v.escapePos:
						site.shared = false
						site.flow = fmt.Sprintf("receiver %s is still thread-local here (escapes at %s: %s)",
							id.Name, s.pkg.Fset.Position(v.escapePos), v.escapeWhy)
					case v.kind == originLocal:
						site.flow = fmt.Sprintf("receiver %s escaped at %s (%s)",
							id.Name, s.pkg.Fset.Position(v.escapePos), v.escapeWhy)
					default:
						site.flow = "receiver " + id.Name + ": " + v.why
					}
				}
			}
		}
		s.fi.ops = append(s.fi.ops, site)
		s.scanExpr(call.Fun.(*ast.SelectorExpr).X, ctx)
		for _, a := range call.Args {
			s.scanExpr(a, ctx)
		}
		return
	}

	// 4. Everything else: a call edge if statically resolvable.
	s.recordCall(call, ctx)
}

func (s *scanner) recordCall(call *ast.CallExpr, ctx *guardCtx) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		s.scanExpr(sel.X, ctx)
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		s.scanStmts(lit.Body.List, ctx) // immediately invoked: inherits
	}
	callee := resolveCallee(s.pkg, call)
	if callee != "" {
		s.fi.calls = append(s.fi.calls, &callEdge{
			callee:  callee,
			pos:     call.Pos(),
			guarded: s.covered(ctx, call.Pos()),
		})
		// Helpers that receive the transaction splice their acquisition
		// sequence into the caller's rank scope.
		for _, a := range call.Args {
			t := s.pkg.Info.TypeOf(a)
			if lint.IsNamed(t, "internal/core", "Txn") || lint.IsNamed(t, "internal/cc", "TwoPL") {
				s.emit(ctx, &rankCall{callee: callee, pos: call.Pos()})
				break
			}
		}
	}
	for _, a := range call.Args {
		s.scanExpr(a, ctx)
	}
}

// funcRefOf resolves an expression that names a function (not a call).
func funcRefOf(pkg *lint.Package, e ast.Expr) funcKey {
	switch e := e.(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[e].(*types.Func); ok {
			return keyOf(fn)
		}
	case *ast.SelectorExpr:
		if selObj, isMethod := pkg.Info.Selections[e]; isMethod {
			if fn, ok := selObj.Obj().(*types.Func); ok {
				return keyOf(fn)
			}
			return ""
		}
		if fn, ok := pkg.Info.Uses[e.Sel].(*types.Func); ok {
			return keyOf(fn)
		}
	}
	return ""
}

// markValueRef: a function referenced as a value can be called from
// anywhere — treat it as an entry point.
func (p *program) markValueRef(key funcKey) {
	if fi := p.funcs[key]; fi != nil && fi.rootCause == "" {
		fi.rootCause = "referenced as a function value"
	}
}

func (p *program) markSectionGuarded(key funcKey) {
	if fi := p.funcs[key]; fi != nil {
		fi.sectionGuarded = true
	}
}

func constIntOf(pkg *lint.Package, e ast.Expr) (int64, bool) {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}
