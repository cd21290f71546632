// Package gosrc is the Go frontend of the semlockc compiler: it parses
// Go source files containing functions marked //semlock:atomic,
// translates their bodies into the atomic-section IR (internal/ir),
// runs the synthesis pipeline (internal/synth), and emits a rewritten
// Go file in which the synthesized semantic-locking statements are
// inserted as calls against the semadt/core runtime — the Go analogue
// of the paper's Java compiler.
//
// Supported input subset (documented in README):
//
//   - ADT parameters typed *semadt.Map / *semadt.Set / *semadt.Queue /
//     *semadt.Multimap;
//   - local ADT variables declared with a //semlock:var NAME CLASS
//     directive in the function's doc comment, assigned from ADT method
//     results or from semadt.NewX(...) allocations;
//   - optional //semlock:class NAME KEY directives refining the pointer
//     abstraction: the variable forms the equivalence class KEY instead
//     of its type's default class (the analogue of a points-to split);
//   - statements: (re)assignments, ADT method calls, if/else with
//     x == nil / x != nil or opaque conditions, for loops;
//   - at most one result, returned by the body's last statement, which
//     runs after the section ends;
//   - everything else is treated as opaque thread-local computation.
package gosrc

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"strings"

	"repro/internal/ir"
	"repro/internal/lint"
)

// adtTypes maps semadt type names to ADT class/spec names.
var adtTypes = map[string]string{
	"Map":      "Map",
	"Set":      "Set",
	"Queue":    "Queue",
	"Multimap": "Multimap",
}

// ctorClasses maps semadt constructor names to class names.
var ctorClasses = map[string]string{
	"NewMap":      "Map",
	"NewSet":      "Set",
	"NewQueue":    "Queue",
	"NewMultimap": "Multimap",
}

// File is the parse result of one input file.
type File struct {
	Package   string
	Fset      *token.FileSet
	Functions []*Function
}

// Function is one //semlock:atomic function: its IR section, the
// original declaration (for signature reproduction), and the per-method
// rendering details the generator needs.
type Function struct {
	Name    string
	Decl    *ast.FuncDecl
	Section *ir.Atomic
	// ADTParams lists parameter names that are ADT pointers (emitted
	// with their original wrapper types).
	ADTParams map[string]string // name → class
	// LocalADTs lists directive-declared ADT locals (emitted as
	// core.Value and asserted at use).
	LocalADTs map[string]string // name → class
	// ClassKeys holds //semlock:class overrides: variable → class key.
	ClassKeys map[string]string
	// Result is the closing return's expression (nil without a result).
	Result ast.Expr
}

// ParseFile parses Go source and extracts every annotated function.
func ParseFile(filename string, src any) (*File, error) {
	fset := token.NewFileSet()
	af, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("gosrc: %w", err)
	}
	out := &File{Package: af.Name.Name, Fset: fset}
	for _, decl := range af.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Doc == nil {
			continue
		}
		if !lint.HasDirective(fd.Doc, "//semlock:atomic") {
			continue
		}
		fn, err := parseFunction(fset, fd)
		if err != nil {
			return nil, fmt.Errorf("gosrc: %s: %w", fd.Name.Name, err)
		}
		out.Functions = append(out.Functions, fn)
	}
	if len(out.Functions) == 0 {
		return nil, fmt.Errorf("gosrc: %s contains no //semlock:atomic functions", filename)
	}
	return out, nil
}

func parseFunction(fset *token.FileSet, fd *ast.FuncDecl) (*Function, error) {
	fn := &Function{
		Name:      fd.Name.Name,
		Decl:      fd,
		ADTParams: map[string]string{},
		LocalADTs: map[string]string{},
		ClassKeys: map[string]string{},
	}
	sec := &ir.Atomic{Name: fd.Name.Name}

	// Parameters.
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			class := adtClassOfType(field.Type)
			typeText := renderNode(fset, field.Type)
			for _, name := range field.Names {
				if class != "" {
					fn.ADTParams[name.Name] = class
					sec.Vars = append(sec.Vars, ir.Param{Name: name.Name, Type: class, IsADT: true, NonNull: true})
				} else {
					sec.Vars = append(sec.Vars, ir.Param{Name: name.Name, Type: typeText})
				}
			}
		}
	}

	// //semlock:class NAME KEY directives (abstraction refinement).
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(c.Text)
		if !strings.HasPrefix(text, "//semlock:class ") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(text, "//semlock:class "))
		if len(fields) != 2 {
			return nil, fmt.Errorf("bad directive %q (want //semlock:class NAME KEY)", text)
		}
		fn.ClassKeys[fields[0]] = fields[1]
	}

	// //semlock:var NAME CLASS directives.
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(c.Text)
		if !strings.HasPrefix(text, "//semlock:var ") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(text, "//semlock:var "))
		if len(fields) != 2 {
			return nil, fmt.Errorf("bad directive %q (want //semlock:var NAME CLASS)", text)
		}
		name, class := fields[0], fields[1]
		if _, ok := adtTypes[class]; !ok {
			return nil, fmt.Errorf("directive %q: unknown ADT class %q", text, class)
		}
		fn.LocalADTs[name] = class
		sec.Vars = append(sec.Vars, ir.Param{Name: name, Type: class, IsADT: true})
	}

	// One result: the closing return statement reads it after the section.
	stmts := fd.Body.List
	if res := fd.Type.Results; res != nil {
		var ret *ast.ReturnStmt
		if len(stmts) > 0 {
			ret, _ = stmts[len(stmts)-1].(*ast.ReturnStmt)
		}
		if len(res.List) != 1 || len(res.List[0].Names) != 0 || ret == nil || len(ret.Results) != 1 {
			return nil, fmt.Errorf("a function with results must have one unnamed result, returned by its last statement")
		}
		fn.Result, stmts = ret.Results[0], stmts[:len(stmts)-1]
	}

	p := &funcParser{fset: fset, fn: fn, sec: sec}
	body, err := p.block(stmts)
	if err != nil {
		return nil, err
	}
	sec.Body = body
	fn.Section = sec
	return fn, nil
}

// adtClassOfType recognizes *semadt.X parameter types.
func adtClassOfType(t ast.Expr) string {
	star, ok := t.(*ast.StarExpr)
	if !ok {
		return ""
	}
	sel, ok := star.X.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "semadt" {
		return ""
	}
	return adtTypes[sel.Sel.Name]
}

type funcParser struct {
	fset *token.FileSet
	fn   *Function
	sec  *ir.Atomic
}

func (p *funcParser) isADT(name string) bool {
	_, a := p.fn.ADTParams[name]
	_, b := p.fn.LocalADTs[name]
	return a || b
}

func (p *funcParser) block(stmts []ast.Stmt) (ir.Block, error) {
	var out ir.Block
	for _, s := range stmts {
		irs, err := p.stmt(s)
		if err != nil {
			return nil, err
		}
		out = append(out, irs...)
	}
	return out, nil
}

func (p *funcParser) stmt(s ast.Stmt) ([]ir.Stmt, error) {
	switch x := s.(type) {
	case *ast.AssignStmt:
		return p.assign(x)
	case *ast.ExprStmt:
		if call, recv, method, ok := p.adtCall(x.X); ok {
			c, err := p.lowerCall(call, recv, method, "")
			if err != nil {
				return nil, err
			}
			return []ir.Stmt{c}, nil
		}
		// Opaque side effect (e.g. a helper call on thread-local state).
		return []ir.Stmt{&ir.Assign{Lhs: "_", Rhs: p.opaque(x.X)}}, nil
	case *ast.IfStmt:
		return p.ifStmt(x)
	case *ast.ForStmt:
		return p.forStmt(x)
	case *ast.DeclStmt:
		// var declarations: record names, no IR effect.
		return nil, nil
	case *ast.ReturnStmt:
		return nil, fmt.Errorf("return inside an atomic section is not supported (line %d)",
			p.fset.Position(s.Pos()).Line)
	case *ast.IncDecStmt:
		if id, ok := x.X.(*ast.Ident); ok {
			return []ir.Stmt{&ir.Assign{Lhs: id.Name, Rhs: ir.Opaque{
				Text:  renderNode(p.fset, x),
				Reads: []string{id.Name},
			}}}, nil
		}
		return []ir.Stmt{&ir.Assign{Lhs: "_", Rhs: p.opaqueText(renderNode(p.fset, x), nil)}}, nil
	default:
		return nil, fmt.Errorf("unsupported statement %T (line %d)", s, p.fset.Position(s.Pos()).Line)
	}
}

func (p *funcParser) assign(x *ast.AssignStmt) ([]ir.Stmt, error) {
	if len(x.Lhs) != 1 || len(x.Rhs) != 1 {
		return nil, fmt.Errorf("multi-assignments are not supported (line %d)", p.fset.Position(x.Pos()).Line)
	}
	lhsID, ok := x.Lhs[0].(*ast.Ident)
	if !ok {
		return nil, fmt.Errorf("assignment to non-identifier (line %d)", p.fset.Position(x.Pos()).Line)
	}
	lhs := lhsID.Name
	rhs := x.Rhs[0]

	// ADT allocation: semadt.NewX(...)
	if class, ok := p.ctorClass(rhs); ok {
		if !p.isADT(lhs) {
			return nil, fmt.Errorf("variable %q allocated an ADT but lacks a //semlock:var directive", lhs)
		}
		return []ir.Stmt{&ir.Assign{Lhs: lhs, NewType: class}}, nil
	}
	// ADT method call result.
	if call, recv, method, ok := p.adtCall(rhs); ok {
		c, err := p.lowerCall(call, recv, method, lhs)
		if err != nil {
			return nil, err
		}
		return []ir.Stmt{c}, nil
	}
	// Plain thread-local assignment.
	switch r := rhs.(type) {
	case *ast.Ident:
		if r.Name == "nil" {
			return []ir.Stmt{&ir.Assign{Lhs: lhs, Rhs: p.opaqueText("nil", nil)}}, nil
		}
		return []ir.Stmt{&ir.Assign{Lhs: lhs, Rhs: ir.VarRef{Name: r.Name}}}, nil
	case *ast.BasicLit:
		return []ir.Stmt{&ir.Assign{Lhs: lhs, Rhs: ir.Lit{Val: litValue(r)}}}, nil
	default:
		return []ir.Stmt{&ir.Assign{Lhs: lhs, Rhs: p.opaque(rhs)}}, nil
	}
}

// ctorClass recognizes semadt.NewX(...) allocations.
func (p *funcParser) ctorClass(e ast.Expr) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "semadt" {
		return "", false
	}
	class, ok := ctorClasses[sel.Sel.Name]
	return class, ok
}

// adtCall recognizes recv.Method(...) on an ADT variable, possibly
// through a generated-style assertion recv.(*semadt.X).Method(...).
func (p *funcParser) adtCall(e ast.Expr) (*ast.CallExpr, string, string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil, "", "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", "", false
	}
	switch recv := sel.X.(type) {
	case *ast.Ident:
		if p.isADT(recv.Name) {
			return call, recv.Name, sel.Sel.Name, true
		}
	case *ast.TypeAssertExpr:
		if id, ok := recv.X.(*ast.Ident); ok && p.isADT(id.Name) {
			return call, id.Name, sel.Sel.Name, true
		}
	}
	return nil, "", "", false
}

// lowerCall translates an ADT method call. Method names are lowered to
// the spec's convention (Get → get).
func (p *funcParser) lowerCall(call *ast.CallExpr, recv, method, assign string) (ir.Stmt, error) {
	args := make([]ir.Expr, len(call.Args))
	for i, a := range call.Args {
		switch arg := a.(type) {
		case *ast.Ident:
			if arg.Name == "nil" {
				args[i] = ir.Opaque{Text: "nil"}
			} else {
				args[i] = ir.VarRef{Name: arg.Name}
			}
		case *ast.BasicLit:
			args[i] = ir.Lit{Val: litValue(arg)}
		default:
			args[i] = p.opaque(a)
		}
	}
	return &ir.Call{
		Recv:   recv,
		Method: lowerMethod(method),
		Args:   args,
		Assign: assign,
	}, nil
}

// lowerMethod maps Go method names (Get, PutIfAbsent) to spec names
// (get, putIfAbsent).
func lowerMethod(m string) string {
	if m == "" {
		return m
	}
	return strings.ToLower(m[:1]) + m[1:]
}

func (p *funcParser) ifStmt(x *ast.IfStmt) ([]ir.Stmt, error) {
	if x.Init != nil {
		return nil, fmt.Errorf("if with init statement is not supported (line %d)", p.fset.Position(x.Pos()).Line)
	}
	cond := p.cond(x.Cond)
	thenB, err := p.block(x.Body.List)
	if err != nil {
		return nil, err
	}
	var elseB ir.Block
	switch e := x.Else.(type) {
	case nil:
	case *ast.BlockStmt:
		elseB, err = p.block(e.List)
		if err != nil {
			return nil, err
		}
	case *ast.IfStmt:
		elseB, err = p.ifStmt(e)
		if err != nil {
			return nil, err
		}
	}
	return []ir.Stmt{&ir.If{Cond: cond, Then: thenB, Else: elseB}}, nil
}

func (p *funcParser) forStmt(x *ast.ForStmt) ([]ir.Stmt, error) {
	var out []ir.Stmt
	if x.Init != nil {
		init, err := p.stmt(x.Init)
		if err != nil {
			return nil, err
		}
		out = append(out, init...)
	}
	var cond ir.Cond = ir.OpaqueCond{Text: "true"}
	if x.Cond != nil {
		cond = p.cond(x.Cond)
	}
	body, err := p.block(x.Body.List)
	if err != nil {
		return nil, err
	}
	if x.Post != nil {
		post, err := p.stmt(x.Post)
		if err != nil {
			return nil, err
		}
		body = append(body, post...)
	}
	out = append(out, &ir.While{Cond: cond, Body: body})
	return out, nil
}

// cond recognizes x == nil / x != nil; everything else is opaque.
func (p *funcParser) cond(e ast.Expr) ir.Cond {
	if be, ok := e.(*ast.BinaryExpr); ok {
		if id, lit, ok2 := identVsNil(be); ok2 {
			_ = lit
			if be.Op == token.EQL {
				return ir.IsNull{Var: id}
			}
			if be.Op == token.NEQ {
				return ir.NotNull{Var: id}
			}
		}
	}
	return ir.OpaqueCond{Text: renderNode(p.fset, e), Reads: identsIn(e)}
}

func identVsNil(be *ast.BinaryExpr) (string, string, bool) {
	x, okX := be.X.(*ast.Ident)
	y, okY := be.Y.(*ast.Ident)
	if okX && okY && y.Name == "nil" {
		return x.Name, "nil", true
	}
	if okX && okY && x.Name == "nil" {
		return y.Name, "nil", true
	}
	return "", "", false
}

func (p *funcParser) opaque(e ast.Expr) ir.Opaque {
	return p.opaqueText(renderNode(p.fset, e), identsIn(e))
}

func (p *funcParser) opaqueText(text string, reads []string) ir.Opaque {
	return ir.Opaque{Text: text, Reads: reads}
}

// identsIn collects identifier names read by an expression.
func identsIn(e ast.Expr) []string {
	var out []string
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name != "nil" && id.Name != "true" && id.Name != "false" {
			out = append(out, id.Name)
		}
		return true
	})
	return out
}

func litValue(l *ast.BasicLit) any {
	switch l.Kind {
	case token.INT:
		var v int
		fmt.Sscanf(l.Value, "%d", &v)
		return v
	case token.STRING:
		return strings.Trim(l.Value, `"`)
	default:
		return l.Value
	}
}

func renderNode(fset *token.FileSet, n ast.Node) string {
	var b strings.Builder
	printer.Fprint(&b, fset, n)
	return b.String()
}
