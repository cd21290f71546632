package gosrc

import (
	"fmt"
	"go/format"
	"slices"
	"strings"

	"repro/internal/adtspecs"
	"repro/internal/ir"
	"repro/internal/synth"
)

// Compile synthesizes locking for every annotated function of the file
// and returns the synthesis result (whose Sections parallel
// f.Functions).
func Compile(f *File) (*synth.Result, error) {
	return CompileAt(f, synth.StageFuse)
}

// CompileAt stops the synthesis pipeline after the given stage —
// semlockc's -stage flag, which reproduces the paper's intermediate
// figures (insert = Figs 13–15, nullchecks = Fig 17, refine = Fig 2).
func CompileAt(f *File, stage synth.Stage) (*synth.Result, error) {
	var secs []*ir.Atomic
	classKeys := map[string]map[string]string{} // section name → overrides
	for _, fn := range f.Functions {
		secs = append(secs, fn.Section)
		if len(fn.ClassKeys) > 0 {
			classKeys[fn.Section.Name] = fn.ClassKeys
		}
	}
	var classOf func(sec *ir.Atomic, v string) string
	if len(classKeys) > 0 {
		classOf = func(sec *ir.Atomic, v string) string {
			if k, ok := classKeys[sec.Name][v]; ok {
				return k
			}
			return sec.ADTType(v)
		}
	}
	return synth.Synthesize(&synth.Program{
		Sections: secs,
		Specs:    adtspecs.All(),
		ClassOf:  classOf,
	}, synth.Options{StopAfter: stage, Verify: true})
}

// Generate emits the rewritten Go source: the original functions with
// the synthesized locking statements inserted, plus the generated
// bootstrap that re-synthesizes the identical plan at init time.
func Generate(f *File, res *synth.Result) (string, error) {
	g := &generator{f: f, res: res}
	src, err := g.run()
	if err != nil {
		return "", err
	}
	pretty, ferr := format.Source([]byte(src))
	if ferr != nil {
		// Return the raw source so failures are debuggable.
		return src, fmt.Errorf("gosrc: generated source does not format: %w", ferr)
	}
	return string(pretty), nil
}

type generator struct {
	f   *File
	res *synth.Result
	b   strings.Builder

	sites     []string // p.Ref calls resolving each lock site, by site number
	siteIndex map[string]int
}

func (g *generator) run() (string, error) {
	g.siteIndex = make(map[string]int)

	var body strings.Builder
	for si, fn := range g.f.Functions {
		text, err := g.function(si, fn)
		if err != nil {
			return "", err
		}
		body.WriteString(text)
		body.WriteString("\n")
	}

	g.b.WriteString("// Code generated by semlockc; DO NOT EDIT.\n")
	g.b.WriteString("//\n// Semantic locking synthesized per Golan-Gueta et al., PPoPP 2015.\n\n")
	fmt.Fprintf(&g.b, "package %s\n\n", g.f.Package)
	g.b.WriteString(`import (
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/modules/plan"
	"repro/internal/semadt"
)

// _semlockSections reconstructs the atomic sections the compiler saw.
func _semlockSections() []*ir.Atomic {
`)
	g.b.WriteString("\treturn []*ir.Atomic{\n")
	for _, fn := range g.f.Functions {
		g.b.WriteString(indentLines(atomicLit(fn.Section), 2) + ",\n")
	}
	g.b.WriteString("\t}\n}\n\n")

	// One plan's lock sites and allocation tables, bound by the package
	// from a plan it synthesized from _semlockSections.
	var tables []string
	for _, fn := range g.f.Functions {
		collectNewClasses(fn.Section, &tables)
	}
	var fields, inits strings.Builder
	for i, ref := range g.sites {
		fmt.Fprintf(&fields, "\tsite%d core.SetRef\n", i)
		fmt.Fprintf(&inits, "\t\tsite%d: %s,\n", i, ref)
	}
	for _, class := range tables {
		fmt.Fprintf(&fields, "\ttbl%s *core.ModeTable\n", class)
		fmt.Fprintf(&inits, "\t\ttbl%s: p.Table(%q),\n", class, class)
	}
	fmt.Fprintf(&g.b, `// _semlockPlan is one plan of _semlockSections: its lock sites and
// allocation tables. The compiled functions are its methods, so each
// runs the plan its receiver was bound to.
type _semlockPlan struct {
%s}

// _semlockBind resolves the lock sites against p, a plan synthesized
// from _semlockSections().
func _semlockBind(p *plan.Plan) *_semlockPlan {
	return &_semlockPlan{
%s	}
}

`, fields.String(), inits.String())
	g.b.WriteString(body.String())
	return g.b.String(), nil
}

// collectNewClasses appends the classes a allocates to out, each once,
// in order of first use.
func collectNewClasses(a *ir.Atomic, out *[]string) {
	var walk func(b ir.Block)
	walk = func(b ir.Block) {
		for _, s := range b {
			switch x := s.(type) {
			case *ir.Assign:
				if x.NewType != "" && !slices.Contains(*out, x.NewType) {
					*out = append(*out, x.NewType)
				}
			case *ir.If:
				walk(x.Then)
				walk(x.Else)
			case *ir.While:
				walk(x.Body)
			}
		}
	}
	walk(a.Body)
}

// site interns a lock site and returns the expression reading its SetRef.
func (g *generator) site(si int, varName string) string {
	key := fmt.Sprintf("%d/%s", si, varName)
	i, ok := g.siteIndex[key]
	if !ok {
		i = len(g.sites)
		g.siteIndex[key] = i
		g.sites = append(g.sites, fmt.Sprintf("p.Ref(%d, %q)", si, varName))
	}
	return fmt.Sprintf("_p.site%d", i)
}

// function emits one rewritten function.
func (g *generator) function(si int, fn *Function) (string, error) {
	sec := g.res.Sections[si]
	var b strings.Builder

	// Signature: the annotated one, as a method of the plan; every param
	// and the result keep their original types.
	fmt.Fprintf(&b, "// %s is the semantically locked form of the annotated input\n", fn.Name)
	fmt.Fprintf(&b, "// function, run under the plan _p binds.\n")
	fmt.Fprintf(&b, "func (_p *_semlockPlan) %s(", fn.Name)
	var params []string
	if fn.Decl.Type.Params != nil {
		for _, field := range fn.Decl.Type.Params.List {
			typeText := renderNode(g.f.Fset, field.Type)
			var names []string
			for _, n := range field.Names {
				names = append(names, n.Name)
			}
			params = append(params, strings.Join(names, ", ")+" "+typeText)
		}
	}
	b.WriteString(strings.Join(params, ", "))
	b.WriteString(")")
	ret := "return"
	if fn.Result != nil {
		fmt.Fprintf(&b, " %s", renderNode(g.f.Fset, fn.Decl.Type.Results.List[0].Type))
		ret += " " + renderNode(g.f.Fset, fn.Result)
	}
	b.WriteString(" {\n")

	// Locals: every variable assigned in the body and not a parameter.
	// Declared outside the section closure so their scope matches the
	// original function body.
	locals := localVars(sec, fn)
	for _, l := range locals {
		fmt.Fprintf(&b, "\tvar %s core.Value\n\t_ = %s\n", l, l)
	}

	// The section body runs under core.Atomically: a pooled transaction
	// whose deferred epilogue releases every held lock on all exit paths
	// — normal return, early unlock, Abort, or panic — so the synthesized
	// section is panic-safe by construction (Prologue.Guard). Sections
	// whose prologue was elided by LOCAL_SET elision still lock through
	// tx, so they get the same wrapper; only a hand-built unguarded
	// prologue falls back to the bare defer.
	//
	// A section that is nothing but an optimistic envelope — the only
	// thing synth.makeOptimistic produces — holds no lock until it falls
	// back, so its body needs no transaction: it runs first, as an
	// immediately-invoked literal over a core.Snapshot on the function's
	// stack, and the wrapper guards only the fallback. No other placement
	// is emitted (emitStmt rejects it).
	body := sec.Body
	if opt, ok := soleOptimistic(body); ok {
		b.WriteString("\tvar sn core.Snapshot\n\tif func() bool {\n")
		if err := g.emitBlock(&b, si, fn, opt.Body, 2); err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "\t\treturn true\n\t}() && sn.Validate() {\n\t\t%s\n\t}\n", ret)
		body = opt.Fallback
	}
	if sectionGuarded(body) {
		b.WriteString("\tcore.Atomically(func(tx *core.Txn) {\n")
		if err := g.emitBlock(&b, si, fn, body, 2); err != nil {
			return "", err
		}
		b.WriteString("\t})\n")
	} else {
		b.WriteString("\ttx := core.NewTxn()\n\tdefer tx.UnlockAll()\n")
		if err := g.emitBlock(&b, si, fn, body, 1); err != nil {
			return "", err
		}
	}
	if fn.Result != nil {
		fmt.Fprintf(&b, "\t%s\n", ret)
	}
	b.WriteString("}\n")
	return b.String(), nil
}

// soleOptimistic reports whether the section body is a single
// optimistic envelope, and returns it.
func soleOptimistic(body ir.Block) (*ir.Optimistic, bool) {
	if len(body) != 1 {
		return nil, false
	}
	opt, ok := body[0].(*ir.Optimistic)
	return opt, ok
}

// sectionGuarded decides whether the section body gets the panic-safe
// core.Atomically wrapper: yes unless the body's prologue explicitly
// opts out (Prologue.Guard false — only constructible by hand; the
// synthesizer always guards).
func sectionGuarded(body ir.Block) bool {
	for _, s := range body {
		if p, ok := s.(*ir.Prologue); ok {
			return p.Guard
		}
	}
	return true
}

// localVars returns non-parameter variables assigned in the section.
func localVars(sec *ir.Atomic, fn *Function) []string {
	param := map[string]bool{"_": true}
	if fn.Decl.Type.Params != nil {
		for _, f := range fn.Decl.Type.Params.List {
			for _, n := range f.Names {
				param[n.Name] = true
			}
		}
	}
	seen := map[string]bool{}
	var out []string
	var walk func(b ir.Block)
	walk = func(b ir.Block) {
		for _, s := range b {
			switch x := s.(type) {
			case *ir.Assign:
				if !param[x.Lhs] && !seen[x.Lhs] {
					seen[x.Lhs] = true
					out = append(out, x.Lhs)
				}
			case *ir.Call:
				if x.Assign != "" && !param[x.Assign] && !seen[x.Assign] {
					seen[x.Assign] = true
					out = append(out, x.Assign)
				}
			case *ir.If:
				walk(x.Then)
				walk(x.Else)
			case *ir.While:
				walk(x.Body)
			case *ir.Optimistic:
				walk(x.Body)
				walk(x.Fallback)
			}
		}
	}
	walk(sec.Body)
	return out
}

func (g *generator) emitBlock(b *strings.Builder, si int, fn *Function, blk ir.Block, depth int) error {
	for _, s := range blk {
		if err := g.emitStmt(b, si, fn, s, depth); err != nil {
			return err
		}
	}
	return nil
}

func ind(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("\t")
	}
}

func (g *generator) emitStmt(b *strings.Builder, si int, fn *Function, s ir.Stmt, depth int) error {
	switch x := s.(type) {
	case *ir.Prologue, *ir.Epilogue:
		// tx.UnlockAll is deferred; LOCAL_SET is the transaction itself.
		if _, ok := s.(*ir.Epilogue); ok {
			ind(b, depth)
			b.WriteString("tx.UnlockAll()\n")
		}
	case *ir.LV:
		site := g.site(si, x.Var)
		mode := g.modeExpr(site, si, x)
		rank := g.rankOf(si, x.Var)
		ind(b, depth)
		fmt.Fprintf(b, "tx.Lock(semadt.SemOf(%s), %s, %d)\n", g.varExpr(fn, x.Var), mode, rank)
	case *ir.LV2:
		site := g.site(si, x.Vars[0])
		mode := g.modeExpr(site, si, &ir.LV{Var: x.Vars[0], Set: x.Set, Generic: x.Generic})
		rank := g.rankOf(si, x.Vars[0])
		var sems []string
		for _, v := range x.Vars {
			sems = append(sems, "semadt.SemOf("+g.varExpr(fn, v)+")")
		}
		ind(b, depth)
		fmt.Fprintf(b, "tx.LockOrdered(%d, %s, %s)\n", rank, mode, strings.Join(sems, ", "))
	case *ir.LockBatch:
		// Fused prologue: one runtime trip through the lock mechanism for
		// the whole run of acquisitions. Each entry contributes one
		// BatchLock per variable; the mode expression is shared across a
		// multi-variable entry (same set, same class).
		ind(b, depth)
		b.WriteString("tx.LockBatch(\n")
		for _, e := range x.Entries {
			site := g.site(si, e.Vars[0])
			mode := g.modeExpr(site, si, &ir.LV{Var: e.Vars[0], Set: e.Set, Generic: e.Generic})
			rank := g.rankOf(si, e.Vars[0])
			for _, v := range e.Vars {
				ind(b, depth+1)
				fmt.Fprintf(b, "core.BatchLock{Sem: semadt.SemOf(%s), Mode: %s, Rank: %d},\n",
					g.varExpr(fn, v), mode, rank)
			}
		}
		ind(b, depth)
		b.WriteString(")\n")
	case *ir.UnlockAllVar:
		ind(b, depth)
		fmt.Fprintf(b, "tx.UnlockInstance(semadt.SemOf(%s))\n", g.varExpr(fn, x.Var))
	case *ir.Observe:
		// Optimistic counterpart of LV/LV2: snapshot the version counter
		// of the mode the lock statement would have taken. A false return
		// (a conflicting holder present) aborts the
		// optimistic body straight into the fallback. SemOf(nil) yields a
		// nil Semantic, which Observe treats as trivially valid — the
		// null-guard of the replaced lock statement needs no emission.
		site := g.site(si, x.Vars[0])
		mode := g.modeExpr(site, si, &ir.LV{Var: x.Vars[0], Set: x.Set, Generic: x.Generic})
		for _, v := range x.Vars {
			ind(b, depth)
			fmt.Fprintf(b, "if !sn.Observe(semadt.SemOf(%s), %s) {\n", g.varExpr(fn, v), mode)
			ind(b, depth+1)
			b.WriteString("return false\n")
			ind(b, depth)
			b.WriteString("}\n")
		}
	case *ir.Optimistic:
		// The only producer, synth.makeOptimistic, makes the envelope the
		// whole section, and function emits that directly. Anywhere else it
		// would sit inside the guard's transaction, where the read's
		// snapshot buys nothing the transaction is not already paying for.
		return fmt.Errorf("gosrc: %s: an optimistic envelope must be its section's only statement", fn.Name)
	case *ir.Call:
		ind(b, depth)
		recv := g.adtExpr(fn, x.Recv)
		var args []string
		for _, a := range x.Args {
			args = append(args, g.exprText(fn, a))
		}
		callText := fmt.Sprintf("%s.%s(%s)", recv, upperMethod(x.Method), strings.Join(args, ", "))
		if x.Assign != "" {
			fmt.Fprintf(b, "%s = %s\n", x.Assign, callText)
		} else {
			fmt.Fprintf(b, "%s\n", callText)
		}
	case *ir.Assign:
		ind(b, depth)
		if x.NewType != "" {
			fmt.Fprintf(b, "%s = semadt.New%s(_p.tbl%s)\n", x.Lhs, x.NewType, x.NewType)
			return nil
		}
		fmt.Fprintf(b, "%s = %s\n", x.Lhs, g.exprText(fn, x.Rhs))
	case *ir.If:
		ind(b, depth)
		fmt.Fprintf(b, "if %s {\n", condText(x.Cond))
		if err := g.emitBlock(b, si, fn, x.Then, depth+1); err != nil {
			return err
		}
		if len(x.Else) > 0 {
			ind(b, depth)
			b.WriteString("} else {\n")
			if err := g.emitBlock(b, si, fn, x.Else, depth+1); err != nil {
				return err
			}
		}
		ind(b, depth)
		b.WriteString("}\n")
	case *ir.While:
		ind(b, depth)
		fmt.Fprintf(b, "for %s {\n", condText(x.Cond))
		if err := g.emitBlock(b, si, fn, x.Body, depth+1); err != nil {
			return err
		}
		ind(b, depth)
		b.WriteString("}\n")
	default:
		return fmt.Errorf("gosrc: cannot emit %T", s)
	}
	return nil
}

// modeExpr renders the mode selection for a lock site.
func (g *generator) modeExpr(site string, si int, lv *ir.LV) string {
	set := lv.Set
	if lv.Generic {
		key, _ := g.res.Classes.ClassOfVar(si, lv.Var)
		set = g.res.Classes.ByKey[key].Spec.AllOpsSet()
	}
	vars := set.Vars()
	args := make([]string, len(vars))
	for i, v := range vars {
		args[i] = "semadt.ID(" + v + ")"
	}
	// Fixed arity builds no []core.Value, so keys stay on the stack; Mode1
	// and Mode2 also take the constant set a site has in an unrefined plan.
	switch len(vars) {
	case 1:
		return fmt.Sprintf("%s.Mode1(%s)", site, args[0])
	case 2:
		return fmt.Sprintf("%s.Mode2(%s)", site, strings.Join(args, ", "))
	}
	return fmt.Sprintf("%s.Mode(%s)", site, strings.Join(args, ", "))
}

func (g *generator) rankOf(si int, v string) int {
	key, _ := g.res.Classes.ClassOfVar(si, v)
	return g.res.Rank(key)
}

// varExpr renders a variable as a plain expression.
func (g *generator) varExpr(fn *Function, v string) string { return v }

// adtExpr renders an ADT receiver: parameters are already typed, locals
// need an assertion to the wrapper type.
func (g *generator) adtExpr(fn *Function, v string) string {
	if class, ok := fn.LocalADTs[v]; ok {
		return fmt.Sprintf("%s.(*semadt.%s)", v, class)
	}
	return v
}

func (g *generator) exprText(fn *Function, e ir.Expr) string {
	switch x := e.(type) {
	case ir.VarRef:
		return x.Name
	case ir.Lit:
		return fmt.Sprintf("%#v", x.Val)
	case ir.Opaque:
		return x.Text
	default:
		return "nil"
	}
}

func condText(c ir.Cond) string {
	switch x := c.(type) {
	case ir.IsNull:
		return x.Var + " == nil"
	case ir.NotNull:
		return x.Var + " != nil"
	case ir.OpaqueCond:
		return x.Text
	default:
		return "false"
	}
}

// upperMethod maps spec method names back to Go (get → Get).
func upperMethod(m string) string {
	if m == "" {
		return m
	}
	return strings.ToUpper(m[:1]) + m[1:]
}

func indentLines(s string, depth int) string {
	pre := strings.Repeat("\t", depth)
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		if l != "" {
			lines[i] = pre + l
		}
	}
	return strings.Join(lines, "\n")
}

// ---- IR → Go-literal codegen (the generated bootstrap) ----

func atomicLit(a *ir.Atomic) string {
	var b strings.Builder
	fmt.Fprintf(&b, "{\n\tName: %q,\n\tVars: []ir.Param{\n", a.Name)
	for _, p := range a.Vars {
		fmt.Fprintf(&b, "\t\t{Name: %q, Type: %q, IsADT: %v, NonNull: %v},\n", p.Name, p.Type, p.IsADT, p.NonNull)
	}
	b.WriteString("\t},\n\tBody: ")
	b.WriteString(indentTail(blockLit(a.Body), 1))
	b.WriteString(",\n}")
	return b.String()
}

func blockLit(blk ir.Block) string {
	var b strings.Builder
	b.WriteString("ir.Block{\n")
	for _, s := range blk {
		b.WriteString("\t" + indentTail(stmtLit(s), 1) + ",\n")
	}
	b.WriteString("}")
	return b.String()
}

func stmtLit(s ir.Stmt) string {
	switch x := s.(type) {
	case *ir.Call:
		var args []string
		for _, a := range x.Args {
			args = append(args, exprLit(a))
		}
		return fmt.Sprintf("&ir.Call{Recv: %q, Method: %q, Args: []ir.Expr{%s}, Assign: %q}",
			x.Recv, x.Method, strings.Join(args, ", "), x.Assign)
	case *ir.Assign:
		if x.NewType != "" {
			return fmt.Sprintf("&ir.Assign{Lhs: %q, NewType: %q}", x.Lhs, x.NewType)
		}
		return fmt.Sprintf("&ir.Assign{Lhs: %q, Rhs: %s}", x.Lhs, exprLit(x.Rhs))
	case *ir.If:
		out := fmt.Sprintf("&ir.If{\n\tCond: %s,\n\tThen: %s,\n", condLit(x.Cond), indentTail(blockLit(x.Then), 1))
		if len(x.Else) > 0 {
			out += fmt.Sprintf("\tElse: %s,\n", indentTail(blockLit(x.Else), 1))
		}
		return out + "}"
	case *ir.While:
		return fmt.Sprintf("&ir.While{\n\tCond: %s,\n\tBody: %s,\n}", condLit(x.Cond), indentTail(blockLit(x.Body), 1))
	default:
		panic(fmt.Sprintf("gosrc: cannot serialize %T", s))
	}
}

func exprLit(e ir.Expr) string {
	switch x := e.(type) {
	case ir.VarRef:
		return fmt.Sprintf("ir.VarRef{Name: %q}", x.Name)
	case ir.Lit:
		return fmt.Sprintf("ir.Lit{Val: %#v}", x.Val)
	case ir.Opaque:
		return fmt.Sprintf("ir.Opaque{Text: %q, Reads: %#v}", x.Text, x.Reads)
	case nil:
		return "nil"
	default:
		panic(fmt.Sprintf("gosrc: cannot serialize expr %T", e))
	}
}

func condLit(c ir.Cond) string {
	switch x := c.(type) {
	case ir.IsNull:
		return fmt.Sprintf("ir.IsNull{Var: %q}", x.Var)
	case ir.NotNull:
		return fmt.Sprintf("ir.NotNull{Var: %q}", x.Var)
	case ir.OpaqueCond:
		return fmt.Sprintf("ir.OpaqueCond{Text: %q, Reads: %#v}", x.Text, x.Reads)
	default:
		panic(fmt.Sprintf("gosrc: cannot serialize cond %T", c))
	}
}

func indentTail(s string, depth int) string {
	pre := strings.Repeat("\t", depth)
	lines := strings.Split(s, "\n")
	for i := 1; i < len(lines); i++ {
		if lines[i] != "" {
			lines[i] = pre + lines[i]
		}
	}
	return strings.Join(lines, "\n")
}

// PlanText renders the full synthesis report (classes, lock order,
// restrictions-graph, sections, mode summaries) — the -plan output of
// semlockc.
func PlanText(res *synth.Result) string { return synth.Report(res) }
