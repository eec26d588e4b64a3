// Package astx holds the small syntax/type helpers shared by the halint
// analyzers.
package astx

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// CalleeOf resolves the called function or method of a call expression,
// or nil if the callee is not a named function (function values, builtin
// calls, conversions).
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// RecvOf returns the receiver expression of a method call `x.M(...)`, or
// nil for plain function calls.
func RecvOf(call *ast.CallExpr) ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}

// ExprString renders a canonical string for simple receiver chains such
// as `s.mu` or `n.q.mu`; arbitrary expressions fall back to the printer.
func ExprString(fset *token.FileSet, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return ExprString(fset, e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return ExprString(fset, e.X)
	}
	var buf bytes.Buffer
	_ = printer.Fprint(&buf, fset, e)
	return buf.String()
}

// PkgPath returns the defining package path of a function, or "".
func PkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// IsFunc reports whether fn is the named package-level function (or
// method set member) pkgPath.name.
func IsFunc(fn *types.Func, pkgPath, name string) bool {
	return fn != nil && fn.Name() == name && PkgPath(fn) == pkgPath
}

// IsMethodOf reports whether fn is a method whose receiver's named type
// is pkgPath.typeName.
func IsMethodOf(fn *types.Func, pkgPath, typeName string) bool {
	named := RecvNamed(fn)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == pkgPath && named.Obj().Name() == typeName
}

// RecvType returns the receiver type of method fn, or nil for a plain
// function.
func RecvType(fn *types.Func) types.Type {
	if fn == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

// RecvNamed returns the named type of fn's receiver (through one pointer
// indirection), or nil.
func RecvNamed(fn *types.Func) *types.Named {
	t := RecvType(fn)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// InspectNoFuncLit walks the subtree of n in syntax order, like
// ast.Inspect, but does not descend into function literals: their bodies
// execute when called, not where written.
func InspectNoFuncLit(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		return fn(m)
	})
}

// Children invokes walk on each direct child of n. Analyzers that need
// scoped state during traversal (loop stacks, nesting depth) recurse via
// walk themselves instead of relying on ast.Inspect's implicit descent.
func Children(n ast.Node, walk func(ast.Node)) {
	first := true
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return false
		}
		if first {
			first = false
			return true
		}
		walk(m)
		return false
	})
}

// ModulePathSuffix reports whether path is exactly suffix or ends with
// "/"+suffix; analyzers use it to recognize framework packages both from
// the real module ("hafw/internal/transport") and from analysistest stub
// trees that mirror the layout.
func ModulePathSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// Indent returns a newline plus the leading tabs that put an inserted
// statement at the same column as the statement at pos (assuming
// tab-indented source, which gofmt guarantees).
func Indent(fset *token.FileSet, pos token.Pos) string {
	col := fset.Position(pos).Column
	if col < 1 {
		col = 1
	}
	return "\n" + strings.Repeat("\t", col-1)
}

// DocHasDirective reports whether a comment group contains the exact
// directive comment (e.g. "//hafw:deterministic").
func DocHasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(c.Text)
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}
