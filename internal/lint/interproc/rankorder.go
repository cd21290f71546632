package interproc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint"
)

// RankOrder proves the program-wide lock-order graph acyclic. Every
// hand-written Txn.Lock / LockWithin / LockOrdered / LockBatch(Within) /
// Observe site contributes its static rank argument as a node; two
// acquisitions on the same transaction in source order contribute an
// edge (earlier → later), with helper functions that receive the
// transaction spliced into their callers' sequences. The cc.TwoPL
// baseline's instance locks participate the same way, keyed by the
// lock field instead of a rank. A cycle is a potential deadlock and is
// printed as a counterexample path; two constant ranks acquired in
// descending order are reported directly (the checked runtime would
// panic on that transaction at the second acquisition).
//
// A node here is a rank, and below it the runtime orders instances of
// one rank by unique id. One level further down — the several lock
// mechanisms of ONE instance, which a LockBatch naming modes of
// different partitions acquires one after the other while holding the
// earlier ones — this graph has no nodes, and needs none: the runtime
// takes an instance's mechanism groups in ascending mechanism index
// whatever order the batch names its modes in (Semantic.acquireGroups;
// core's TestAcquireGroupsOpposedOrders), so the order below an
// instance is fixed by the mode table and no call site can invert it.
// The argument order of a batch's entries for one instance is therefore
// not an ordering fact, and this analyzer does not read it as one.
//
// Synthesized sections don't go through this text-level analysis: their
// exact class ranks are exported by internal/synth and embedded into
// internal/verify's GlobalOrder, which cmd/semlockvet cross-checks
// alongside this analyzer.
var RankOrder = &lint.ProgramAnalyzer{
	Name: "rankorder",
	Doc:  "prove the program-wide semantic-lock rank order acyclic across all hand-written acquisition sites",
	Run:  runRankOrder,
}

// ---- rank scope model (filled in by the engine's body scan) ----

// rankSym is one node of the lock-order graph: a constant rank, a
// struct field or package-level variable holding a rank, or a
// function-local symbol.
type rankSym struct {
	scope   string // "" for constants; package path or funcKey otherwise
	name    string
	val     int64
	isConst bool
}

func (r rankSym) key() string {
	if r.isConst {
		return fmt.Sprintf("rank %d", r.val)
	}
	return r.scope + "::" + r.name
}

func (r rankSym) String() string {
	if r.isConst {
		return fmt.Sprintf("rank %d", r.val)
	}
	return r.name
}

// rankItem is one element of an acquisition sequence.
type rankItem interface{ isRankItem() }

// rankLock is one acquisition site; batch/ordered forms carry several
// symbols acquired as one sorted group (no intra-group edges — the
// runtime orders the constituents).
type rankLock struct {
	syms []rankSym
	pos  token.Pos
}

// rankBranch holds the alternative sequences of an if/else: each arm
// extends the same prefix but the arms impose no order on each other.
type rankBranch struct {
	alts [][]rankItem
}

// rankCall marks a call that hands the transaction to a helper whose
// top-level sequence splices in here.
type rankCall struct {
	callee funcKey
	pos    token.Pos
}

func (*rankLock) isRankItem()   {}
func (*rankBranch) isRankItem() {}
func (*rankCall) isRankItem()   {}

// rankScope is one transaction's acquisition sequence: the function's
// top-level statements for a Txn-parameter helper, or one
// Atomically/TryOptimistic literal.
type rankScope struct {
	items []rankItem
}

func (s *scanner) emit(ctx *guardCtx, item rankItem) {
	if ctx.scope == nil {
		ctx.scope = &rankScope{}
	}
	ctx.scope.items = append(ctx.scope.items, item)
}

// recordRankEvents extracts the rank symbols of a guard-acquisition
// call into the current scope.
func (s *scanner) recordRankEvents(call *ast.CallExpr, ctx *guardCtx) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	selObj, isMethod := s.pkg.Info.Selections[sel]
	if !isMethod {
		return
	}
	fn, _ := selObj.Obj().(*types.Func)
	if fn == nil {
		return
	}
	recv := selObj.Recv()
	switch {
	case lint.IsNamed(recv, "internal/core", "Txn"):
		switch fn.Name() {
		case "Lock", "LockWithin", "Observe":
			if len(call.Args) >= 3 {
				s.emit(ctx, &rankLock{syms: []rankSym{s.symOf(call.Args[2])}, pos: call.Pos()})
			}
		case "LockOrdered":
			if len(call.Args) >= 1 {
				s.emit(ctx, &rankLock{syms: []rankSym{s.symOf(call.Args[0])}, pos: call.Pos()})
			}
		case "LockBatch", "LockBatchWithin": // the patience argument is no BatchLock literal and is skipped
			var group []rankSym
			for _, a := range call.Args {
				lit := compositeOf(a)
				if lit == nil {
					continue // spread slice or prebuilt value: rank unknown
				}
				if rankExpr := batchRankExpr(s.pkg, lit); rankExpr != nil {
					group = appendSym(group, s.symOf(rankExpr))
				}
			}
			if len(group) > 0 {
				s.emit(ctx, &rankLock{syms: group, pos: call.Pos()})
			}
		}
	case lint.IsNamed(recv, "internal/cc", "TwoPL"):
		switch fn.Name() {
		case "Lock":
			if len(call.Args) >= 1 {
				s.emit(ctx, &rankLock{syms: []rankSym{s.symOf(call.Args[0])}, pos: call.Pos()})
			}
		case "LockOrdered":
			var group []rankSym
			for _, a := range call.Args {
				group = appendSym(group, s.symOf(a))
			}
			if len(group) > 0 {
				s.emit(ctx, &rankLock{syms: group, pos: call.Pos()})
			}
		}
	}
}

func compositeOf(e ast.Expr) *ast.CompositeLit {
	switch e := e.(type) {
	case *ast.CompositeLit:
		return e
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if cl, ok := e.X.(*ast.CompositeLit); ok {
				return cl
			}
		}
	}
	return nil
}

// batchRankExpr finds the Rank field of a core.BatchLock literal
// (keyed or positional — Rank is the third field).
func batchRankExpr(pkg *lint.Package, lit *ast.CompositeLit) ast.Expr {
	for i, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Rank" {
				return kv.Value
			}
			continue
		}
		if i == 2 {
			return el
		}
	}
	return nil
}

// symOf maps a rank (or instance-lock) expression to its graph symbol.
func (s *scanner) symOf(e ast.Expr) rankSym {
	if v, ok := constIntOf(s.pkg, e); ok {
		return rankSym{isConst: true, val: v}
	}
	switch e := e.(type) {
	case *ast.SelectorExpr:
		if obj, ok := s.pkg.Info.Uses[e.Sel].(*types.Var); ok && obj.Pkg() != nil {
			if obj.IsField() {
				recvName := "?"
				if t := s.pkg.Info.TypeOf(e.X); t != nil {
					if pt, ok := t.(*types.Pointer); ok {
						t = pt.Elem()
					}
					if n, ok := t.(*types.Named); ok {
						recvName = n.Obj().Name()
					}
				}
				return rankSym{scope: obj.Pkg().Path(), name: recvName + "." + e.Sel.Name}
			}
			return rankSym{scope: obj.Pkg().Path(), name: e.Sel.Name}
		}
	case *ast.Ident:
		if obj, ok := s.pkg.Info.Uses[e].(*types.Var); ok && obj.Pkg() != nil {
			if obj.Parent() == obj.Pkg().Scope() {
				return rankSym{scope: obj.Pkg().Path(), name: e.Name}
			}
			return rankSym{scope: string(s.fi.key), name: e.Name}
		}
	}
	return rankSym{scope: string(s.fi.key), name: lint.ExprText(e)}
}

func appendSym(syms []rankSym, s rankSym) []rankSym {
	for _, have := range syms {
		if have.key() == s.key() {
			return syms
		}
	}
	return append(syms, s)
}

// ---- graph construction and checking ----

type lockRef struct {
	sym rankSym
	pos token.Pos
	fn  *funcInfo
}

type orderEdge struct {
	from, to lockRef
}

type rankGraph struct {
	pass *lint.ProgramPass
	p    *program
	// first witness site per (from,to) symbol pair
	edges map[[2]string]*orderEdge
	// direct constant inversions, deduped by reporting position
	reported map[string]bool
}

func runRankOrder(pass *lint.ProgramPass) {
	p := buildProgram(pass.Pkgs)
	g := &rankGraph{
		pass:     pass,
		p:        p,
		edges:    make(map[[2]string]*orderEdge),
		reported: make(map[string]bool),
	}
	for _, key := range p.order {
		fi := p.funcs[key]
		for _, scope := range fi.scopes {
			g.walk(scope.items, nil, fi, 0, map[funcKey]bool{key: true})
		}
	}
	g.checkCycles()
}

const maxPrior = 64

// walk threads the prior-acquisition set through one sequence,
// emitting an edge for every (earlier, later) pair and splicing
// Txn-passing callees.
func (g *rankGraph) walk(items []rankItem, prior []lockRef, owner *funcInfo, depth int, stack map[funcKey]bool) []lockRef {
	for _, it := range items {
		switch it := it.(type) {
		case *rankLock:
			refs := make([]lockRef, 0, len(it.syms))
			for _, sym := range it.syms {
				refs = append(refs, lockRef{sym: sym, pos: it.pos, fn: owner})
			}
			for _, to := range refs {
				for _, from := range prior {
					g.addPair(from, to)
				}
			}
			for _, r := range refs {
				prior = appendRef(prior, r)
			}
		case *rankBranch:
			base := prior
			merged := append([]lockRef(nil), base...)
			for _, alt := range it.alts {
				out := g.walk(alt, append([]lockRef(nil), base...), owner, depth, stack)
				for _, r := range out {
					merged = appendRef(merged, r)
				}
			}
			prior = merged
		case *rankCall:
			callee := g.p.funcs[it.callee]
			if callee == nil || stack[it.callee] || depth >= 8 {
				continue
			}
			stack[it.callee] = true
			out := g.walk(callee.topScope.items, prior, callee, depth+1, stack)
			delete(stack, it.callee)
			// A callee-local rank symbol names a per-invocation value:
			// the binding dies when the call returns, and the same name
			// on a later call is a different rank. Keeping it in the
			// prior set would manufacture cross-call edges between
			// unrelated values (observed as a spurious self-cycle
			// through the interpreter's dynamically ranked runStmt).
			prior = prior[:0:0]
			for _, r := range out {
				if !r.sym.isConst && r.sym.scope == string(it.callee) {
					continue
				}
				prior = append(prior, r)
			}
		}
		if len(prior) > maxPrior {
			prior = prior[len(prior)-maxPrior:]
		}
	}
	return prior
}

func appendRef(prior []lockRef, r lockRef) []lockRef {
	for _, have := range prior {
		if have.sym.key() == r.sym.key() {
			return prior
		}
	}
	return append(prior, r)
}

func (g *rankGraph) site(r lockRef) string {
	return fmt.Sprintf("%s in %s", r.fn.pkg.Fset.Position(r.pos), r.fn.name)
}

func (g *rankGraph) addPair(from, to lockRef) {
	if from.sym.key() == to.sym.key() {
		return // same symbol: the runtime's instance-id order governs
	}
	if from.sym.isConst && to.sym.isConst && from.sym.val > to.sym.val {
		// A descending constant pair needs no graph: the checked
		// runtime panics at the second acquisition.
		posKey := g.site(from) + "|" + g.site(to)
		if g.reported[posKey] {
			return
		}
		g.reported[posKey] = true
		g.pass.Report(lint.Diagnostic{
			Pos: to.fn.pkg.Fset.Position(to.pos),
			Message: fmt.Sprintf("rank %d acquired after rank %d on the same transaction: OS2PL ranks must be non-decreasing",
				to.sym.val, from.sym.val),
			Witness: []string{
				fmt.Sprintf("rank %d acquired first at %s", from.sym.val, g.site(from)),
				fmt.Sprintf("rank %d acquired second at %s", to.sym.val, g.site(to)),
			},
		})
		return
	}
	ek := [2]string{from.sym.key(), to.sym.key()}
	if _, have := g.edges[ek]; !have {
		g.edges[ek] = &orderEdge{from: from, to: to}
	}
}

// checkCycles proves the accumulated symbol graph acyclic, reporting
// each cycle (one per strongly-connected entanglement) as a
// potential-deadlock counterexample.
func (g *rankGraph) checkCycles() {
	adj := make(map[string][]string)
	for ek := range g.edges {
		adj[ek[0]] = append(adj[ek[0]], ek[1])
	}
	nodes := make([]string, 0, len(adj))
	for n := range adj {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, outs := range adj {
		sort.Strings(outs)
	}

	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int)
	var stack []string
	onStack := make(map[string]int) // node -> index in stack

	var dfs func(n string) []string
	dfs = func(n string) []string {
		color[n] = gray
		onStack[n] = len(stack)
		stack = append(stack, n)
		for _, m := range adj[n] {
			switch color[m] {
			case white:
				if cyc := dfs(m); cyc != nil {
					return cyc
				}
			case gray:
				return append(append([]string(nil), stack[onStack[m]:]...), m)
			}
		}
		stack = stack[:len(stack)-1]
		delete(onStack, n)
		color[n] = black
		return nil
	}

	for _, n := range nodes {
		if color[n] != white {
			continue
		}
		cyc := dfs(n)
		if cyc == nil {
			continue
		}
		g.reportCycle(cyc)
		// Mark everything involved black so one entanglement reports
		// one counterexample instead of a cascade.
		for _, m := range cyc {
			color[m] = black
		}
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			delete(onStack, top)
			color[top] = black
		}
	}
}

func (g *rankGraph) reportCycle(cyc []string) {
	// cyc is a node-key path n0 ... nk with n0 == nk.
	var names []string
	var witness []string
	var pos token.Position
	for i := 0; i+1 < len(cyc); i++ {
		e := g.edges[[2]string{cyc[i], cyc[i+1]}]
		if e == nil {
			continue
		}
		names = append(names, e.from.sym.String())
		witness = append(witness, fmt.Sprintf("%s acquired before %s at %s",
			e.from.sym, e.to.sym, g.site(e.to)))
		if i == 0 {
			pos = e.to.fn.pkg.Fset.Position(e.to.pos)
		}
	}
	if len(names) == 0 {
		return
	}
	names = append(names, names[0])
	g.pass.Report(lint.Diagnostic{
		Pos: pos,
		Message: "global lock-order cycle (potential deadlock): " +
			strings.Join(names, " -> "),
		Witness: witness,
	})
}
