// Package propagate is the interprocedural engine shared by the
// determinism and hotpath passes. Each pass scans every function
// declaration for the first local reason it breaks the pass's rule and
// files its static calls; Run propagates reasons through same-package
// calls to a fixpoint (callees in already-analyzed packages resolve
// through their object facts), exports a fact for every function with a
// reason so importing packages see it, and hands each function marked
// with the pass's directive to the pass to report.
package propagate

import (
	"fmt"
	"go/ast"
	"go/types"

	"hafw/internal/analysis"
	"hafw/internal/analyzers/astx"
)

// Fact is a pass's object fact type: a pointer to the pass's own struct
// holding the human-readable chain down to the primitive cause.
type Fact[R ~struct{ Reason string }] interface {
	*R
	analysis.Fact
}

// Func is one function declaration's summary.
type Func struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	// Reason is the first local reason, or the chain down to a callee's;
	// "" while the function is clean.
	Reason string
	// Fix is the pass's mechanical repair for a local Reason.
	Fix *analysis.SuggestedFix

	calls    []*types.Func // same-package static callees
	seen     map[*types.Func]bool
	imported func(*types.Func) (string, bool)
	pkg      *types.Package
}

// Note records reason unless the function already has one, and reports
// whether it did.
func (f *Func) Note(reason string) bool {
	if f.Reason != "" {
		return false
	}
	f.Reason = reason
	return true
}

// Call files a static call edge. Same-package callees join the fixpoint;
// callees of already-analyzed packages resolve immediately through their
// facts; interface methods are unresolvable statically and assumed clean
// (their concrete implementations carry their own summaries), and so is
// everything else the pass does not name as a local reason.
func (f *Func) Call(fn *types.Func) {
	if f.seen[fn] {
		return
	}
	f.seen[fn] = true
	if rt := astx.RecvType(fn); rt != nil && (astx.RecvNamed(fn) == nil || types.IsInterface(rt)) {
		return
	}
	if fn.Pkg() == f.pkg {
		f.calls = append(f.calls, fn)
		return
	}
	if reason, ok := f.imported(fn); ok {
		f.Note(fmt.Sprintf("calls %s.%s, which %s", astx.PkgPath(fn), fn.Name(), reason))
	}
}

// Run summarizes every function declaration of the package with scan,
// propagates reasons, exports an F fact for each function with one, and
// calls root for each function whose declaration carries directive.
func Run[R ~struct{ Reason string }, F Fact[R]](pass *analysis.Pass, directive string, scan func(*analysis.Pass, *Func), root func(*Func)) {
	imported := func(fn *types.Func) (string, bool) {
		var fact R
		if !pass.ImportObjectFact(fn, F(&fact)) {
			return "", false
		}
		return struct{ Reason string }(fact).Reason, true
	}
	var funcs []*Func
	byFn := make(map[*types.Func]*Func)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			f := &Func{Fn: fn, Decl: fd, seen: make(map[*types.Func]bool), imported: imported, pkg: pass.Pkg}
			scan(pass, f)
			funcs = append(funcs, f)
			byFn[fn] = f
		}
	}

	for changed := true; changed; {
		changed = false
		for _, f := range funcs {
			if f.Reason != "" {
				continue
			}
			for _, callee := range f.calls {
				if c := byFn[callee]; c != nil && c.Reason != "" {
					f.Reason = fmt.Sprintf("calls %s, which %s", callee.Name(), c.Reason)
					changed = true
					break
				}
			}
		}
	}

	for _, f := range funcs {
		if f.Reason != "" {
			fact := R{Reason: f.Reason}
			pass.ExportObjectFact(f.Fn, F(&fact))
		}
		if astx.DocHasDirective(f.Decl.Doc, directive) {
			root(f)
		}
	}
}
