package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// The section model. Every analyzer of this package and of
// internal/lint/interproc asks the same few questions — does this call
// open an atomic section, is this value a core, resilience or adt type,
// how is a receiver rendered — and answers them here, once.

// NamedFrom returns the name of the named type behind t (looking
// through one pointer) when it is declared in a package whose import
// path ends in pkgSuffix.
func NamedFrom(t types.Type, pkgSuffix string) (string, bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil || !strings.HasSuffix(n.Obj().Pkg().Path(), pkgSuffix) {
		return "", false
	}
	return n.Obj().Name(), true
}

// IsNamed reports whether t (possibly behind a pointer) is the type
// name declared in a package whose import path ends in pkgSuffix.
func IsNamed(t types.Type, pkgSuffix, name string) bool {
	n, ok := NamedFrom(t, pkgSuffix)
	return ok && n == name
}

// calleeFunc returns the declared function or method a selector call
// invokes, or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	return fn
}

// IsSectionEntry reports whether call opens an atomic section, whose
// body is the function handed to it:
//
//   - core.Atomically and (*core.Txn).Atomically;
//   - (*core.Txn).TryOptimistic, whose body runs on the enclosing
//     transaction and holds no lock (see isTryOptimistic);
//   - (*resilience.Policy).Run, which runs its closure inside
//     core.Atomically.
func IsSectionEntry(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	switch fn.Name() {
	case "Atomically":
		if recv == nil {
			return strings.HasSuffix(fn.Pkg().Path(), "internal/core")
		}
		return IsNamed(recv.Type(), "internal/core", "Txn")
	case "TryOptimistic":
		return recv != nil && IsNamed(recv.Type(), "internal/core", "Txn")
	case "Run":
		return recv != nil && IsNamed(recv.Type(), "internal/resilience", "Policy")
	}
	return false
}

// isTryOptimistic reports whether call is (*core.Txn).TryOptimistic: the
// one section entry whose body observes instead of locking.
func isTryOptimistic(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	return fn != nil && fn.Name() == "TryOptimistic" && IsSectionEntry(info, call)
}

// ExprText renders an expression's shape for diagnostics and for
// comparing receivers: identifiers, selectors, derefs, indexing and
// calls (as f(...)); anything else is "?".
func ExprText(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return ExprText(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return "*" + ExprText(e.X)
	case *ast.UnaryExpr:
		return e.Op.String() + ExprText(e.X)
	case *ast.IndexExpr:
		return ExprText(e.X) + "[" + ExprText(e.Index) + "]"
	case *ast.CallExpr:
		return ExprText(e.Fun) + "(...)"
	case *ast.ParenExpr:
		return "(" + ExprText(e.X) + ")"
	case *ast.TypeAssertExpr:
		return ExprText(e.X) + ".(...)"
	case *ast.BasicLit:
		return e.Value
	default:
		return "?"
	}
}
