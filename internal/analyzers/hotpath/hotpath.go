// Package hotpath implements the halint pass that keeps per-message
// allocations off the framework's hot paths. The data plane — vsync
// Data/SeqData delivery, transport encode/decode, wire marshalling, media
// chunk sends — runs once per message; an allocation there is multiplied
// by the message rate and becomes GC pressure that erodes exactly the
// throughput wins the batching/codec work (ROADMAP item 1) buys. The pass
// makes those regressions visible at review time instead of in a
// benchmark three PRs later.
//
// Functions are opted in with a `//hafw:hotpath` directive on their
// declaration. Inside a root the pass flags each allocating construct:
// gob/reflect-based encoding, fmt formatting and string concatenation,
// fresh `make([]byte, ...)` buffers that bypass the wire buffer pool, map
// allocation inside loops, and explicit interface boxing. It shares the
// determinism pass's interprocedural engine (package propagate):
// functions that allocate export an object fact, and a root whose static
// call graph reaches one is reported with the offending chain. Loop-invariant buffer allocations
// get a suggested fix that hoists them out of the loop for reuse.
package hotpath

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"hafw/internal/analysis"
	"hafw/internal/analyzers/astx"
	"hafw/internal/analyzers/propagate"
)

// Directive marks a function whose call graph must stay allocation-free.
const Directive = "//hafw:hotpath"

// Analyzer is the hotpath pass.
var Analyzer = &analysis.Analyzer{
	Name:      "hotpath",
	Doc:       "checks that //hafw:hotpath functions (and everything they call) avoid per-call allocations: gob/reflect encoding, fmt formatting, string concatenation, unpooled byte buffers, map allocation in loops, and interface boxing",
	Run:       run,
	FactTypes: []analysis.Fact{(*AllocFact)(nil)},
}

// AllocFact marks a function as allocating per call; Reason holds the
// chain down to the primitive cause.
type AllocFact struct {
	Reason string
}

// AFact implements analysis.Fact.
func (*AllocFact) AFact() {}

// allocPkgs are packages any call into which allocates (or reflects,
// which allocates): the whole point of the hand-rolled codec is not
// paying these per message.
var allocPkgs = map[string]string{
	"encoding/gob":  "encodes with encoding/gob (reflection and buffer allocation per call)",
	"encoding/json": "encodes with encoding/json (reflection and buffer allocation per call)",
	"reflect":       "uses reflection (allocates and defeats inlining)",
}

// fmtAlloc lists fmt functions that build a fresh string or box their
// arguments per call. (Every fmt call boxes its operands into ...any.)
var fmtAlloc = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true,
	"Errorf": true, "Fprintf": true, "Fprint": true, "Fprintln": true,
	"Printf": true, "Print": true, "Println": true, "Appendf": true,
}

func run(pass *analysis.Pass) error {
	propagate.Run[AllocFact](pass, Directive, scanBody, func(f *propagate.Func) {
		// Report each local allocation site (with fixes where
		// mechanical), plus one chain diagnostic if a callee is the
		// first offender.
		if !reportSites(pass, f.Decl) && f.Reason != "" {
			pass.Reportf(f.Decl.Name.Pos(), "%s is marked %s but %s", f.Fn.Name(), Directive, f.Reason)
		}
	})
	return nil
}

// scanBody records the first local allocation reason and the static
// calls of one function.
func scanBody(pass *analysis.Pass, f *propagate.Func) {
	ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if reason := concatReason(pass, n); reason != "" {
				f.Note(reason)
			}
		case *ast.CallExpr:
			if reason, _ := callAllocReason(pass, n, false); reason != "" {
				f.Note(reason)
			}
			if fn := astx.CalleeOf(pass.TypesInfo, n); fn != nil {
				f.Call(fn)
			}
		}
		return true
	})
}

// reportSites walks a hotpath root's body and reports every local
// allocation site individually; it returns whether anything was reported.
func reportSites(pass *analysis.Pass, decl *ast.FuncDecl) bool {
	reported := false
	var loops []ast.Node // enclosing loop stack
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return // runs when called, not where written
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, n)
			defer func() { loops = loops[:len(loops)-1] }()
		case *ast.BinaryExpr:
			if reason := concatReason(pass, n); reason != "" {
				pass.Reportf(n.OpPos, "hot path %s", reason)
				reported = true
			}
		case *ast.CallExpr:
			reason, kind := callAllocReason(pass, n, true)
			if reason != "" {
				d := analysis.Diagnostic{
					Pos:     n.Pos(),
					Message: "hot path " + reason,
				}
				if kind == allocMakeBytes && len(loops) > 0 {
					if fix, ok := hoistFix(pass, n, loops[len(loops)-1]); ok {
						d.SuggestedFixes = []analysis.SuggestedFix{fix}
					}
				}
				pass.Report(d)
				reported = true
			}
			if kind == allocMapMake && len(loops) > 0 {
				pass.Reportf(n.Pos(), "hot path allocates a map inside a loop; hoist it out or index by a fixed-size array")
				reported = true
			}
		case *ast.CompositeLit:
			if t := pass.TypesInfo.Types[n].Type; t != nil {
				if _, ok := t.Underlying().(*types.Map); ok && len(loops) > 0 {
					pass.Reportf(n.Pos(), "hot path allocates a map literal inside a loop; hoist it out or index by a fixed-size array")
					reported = true
				}
			}
		}
		astx.Children(n, walk)
	}
	astx.Children(decl.Body, walk)
	return reported
}

type allocKind int

const (
	allocNone allocKind = iota
	allocCall
	allocMakeBytes
	allocMapMake
	allocBoxing
)

// callAllocReason classifies one call expression. When site is false the
// result feeds fact propagation (conservative, no loop context); when
// true it feeds per-site diagnostics in a root body.
func callAllocReason(pass *analysis.Pass, call *ast.CallExpr, site bool) (string, allocKind) {
	// Builtin make: []byte buffers and maps.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "make" && len(call.Args) >= 1 {
			t := pass.TypesInfo.Types[call.Args[0]].Type
			if t != nil {
				if sl, ok := t.Underlying().(*types.Slice); ok {
					if basic, ok := sl.Elem().Underlying().(*types.Basic); ok && basic.Kind() == types.Uint8 {
						return "allocates a fresh []byte per call; reuse a buffer or a pooled one", allocMakeBytes
					}
				}
				if _, ok := t.Underlying().(*types.Map); ok {
					return "", allocMapMake // only reported inside loops
				}
			}
			return "", allocNone
		}
	}
	// Explicit interface boxing: any(x) / wire.Message(x) conversions.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if types.IsInterface(tv.Type) {
			if argT := pass.TypesInfo.Types[call.Args[0]].Type; argT != nil && !types.IsInterface(argT) {
				if _, isPtr := argT.Underlying().(*types.Pointer); !isPtr {
					return "boxes a value into an interface (allocates per call); keep concrete types or pass pointers", allocBoxing
				}
			}
		}
		return "", allocNone
	}
	fn := astx.CalleeOf(pass.TypesInfo, call)
	if fn == nil {
		return "", allocNone
	}
	pkg := astx.PkgPath(fn)
	if reason, ok := allocPkgs[pkg]; ok {
		return reason, allocCall
	}
	if named := astx.RecvNamed(fn); named != nil && named.Obj().Pkg() != nil {
		if reason, ok := allocPkgs[named.Obj().Pkg().Path()]; ok {
			return reason, allocCall
		}
	}
	if pkg == "fmt" && fmtAlloc[fn.Name()] {
		return fmt.Sprintf("formats with fmt.%s (allocates and boxes arguments per call)", fn.Name()), allocCall
	}
	return "", allocNone
}

// concatReason flags string concatenation, which builds a fresh string
// (and usually garbage) per call. Constant folding is exempt.
func concatReason(pass *analysis.Pass, bin *ast.BinaryExpr) string {
	if bin.Op != token.ADD {
		return ""
	}
	tv, ok := pass.TypesInfo.Types[bin]
	if !ok || tv.Type == nil || tv.Value != nil { // constant: folded at compile time
		return ""
	}
	if basic, ok := tv.Type.Underlying().(*types.Basic); !ok || basic.Info()&types.IsString == 0 {
		return ""
	}
	return "builds a string with + (allocates per call); use a reused buffer or precompute"
}

// hoistFix builds the mechanical loop-invariant hoist for
// `buf := make([]byte, n)` inside a loop: the allocation moves in front
// of the loop so iterations reuse one buffer. Only offered when the size
// expression does not depend on anything declared inside the loop (and
// the assignment is a simple one-variable define).
func hoistFix(pass *analysis.Pass, call *ast.CallExpr, loop ast.Node) (analysis.SuggestedFix, bool) {
	// Find the assignment statement `name := make(...)` containing call.
	var assign *ast.AssignStmt
	ast.Inspect(loop, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Rhs) == 1 && as.Rhs[0] == ast.Expr(call) {
			assign = as
			return false
		}
		return true
	})
	if assign == nil || assign.Tok.String() != ":=" || len(assign.Lhs) != 1 {
		return analysis.SuggestedFix{}, false
	}
	if _, ok := assign.Lhs[0].(*ast.Ident); !ok {
		return analysis.SuggestedFix{}, false
	}
	// Loop-invariant: no identifier in the size arguments may resolve to
	// an object declared within the loop.
	invariant := true
	for _, arg := range call.Args[1:] {
		ast.Inspect(arg, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			if obj != nil && obj.Pos() >= loop.Pos() && obj.Pos() < loop.End() {
				invariant = false
			}
			return true
		})
	}
	if !invariant {
		return analysis.SuggestedFix{}, false
	}
	// The hoisted declaration lands in front of the loop; the in-loop
	// statement is deleted (together with its line's leading indentation)
	// so every iteration reuses the one buffer.
	stmtText := astx.ExprString(pass.Fset, assign.Lhs[0]) + " := " + astx.ExprString(pass.Fset, call)
	delStart := assign.Pos()
	if posn := pass.Fset.Position(assign.Pos()); posn.Column > 1 {
		delStart -= token.Pos(posn.Column - 1 + 1) // leading tabs plus the newline before them
	}
	return analysis.SuggestedFix{
		Message: fmt.Sprintf("hoist the loop-invariant %s out of the loop for reuse", astx.ExprString(pass.Fset, call)),
		TextEdits: []analysis.TextEdit{
			{Pos: loop.Pos(), End: loop.Pos(), NewText: []byte(stmtText + astx.Indent(pass.Fset, loop.Pos()))},
			{Pos: delStart, End: assign.End(), NewText: nil},
		},
	}, true
}
