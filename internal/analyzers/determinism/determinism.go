// Package determinism implements the halint pass that machine-checks the
// paper's central correctness argument: primaries and backups are chosen
// by deterministic functions over the replicated unit database, so every
// content-group member reaches the same allocation after a view change
// with no message exchange (paper §3.4, DESIGN.md "The determinism
// contract"). Any nondeterminism on those paths — wall-clock reads,
// unseeded randomness, map-iteration order leaking into ordered output,
// environment reads, spawned goroutines — breaks replica agreement
// silently, so it must be impossible to introduce by accident.
//
// Functions are opted in with a `//hafw:deterministic` directive comment
// on their declaration. The pass walks every function body, records a
// nondeterminism reason for functions that misbehave locally, propagates
// impurity through static calls (transitively across packages via object
// facts), and reports each annotated root whose call graph reaches an
// impure function, with the offending chain.
//
// The pass also enforces the simulator's virtual-clock contract: a
// package whose package comment carries `//hafw:simclock` declares that
// all of its time flows through an injected clock.Clock, so any direct
// call to the time package's clock or timer constructors in non-test
// files is reported. Without this check a single stray time.After would
// silently desynchronize the discrete-event harness from the code under
// test.
package determinism

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"hafw/internal/analysis"
	"hafw/internal/analyzers/astx"
	"hafw/internal/analyzers/propagate"
)

// Directive marks a function whose call graph must be deterministic.
const Directive = "//hafw:deterministic"

// PackageDirective marks a clock-injected package: every timer and
// wall-clock read must go through the clock.Clock the package was
// constructed with, never the time package directly, so the simulator's
// virtual clock controls all of its scheduling.
const PackageDirective = "//hafw:simclock"

// Analyzer is the determinism pass.
var Analyzer = &analysis.Analyzer{
	Name:      "determinism",
	Doc:       "checks that //hafw:deterministic functions (and everything they call) avoid clocks, randomness, map-order-dependent output, environment reads, and goroutine spawns; and that //hafw:simclock packages never call the time package's clocks or timers directly",
	Run:       run,
	FactTypes: []analysis.Fact{(*ImpureFact)(nil)},
}

// ImpureFact marks a function as nondeterministic; Reason holds the
// human-readable chain down to the primitive cause.
type ImpureFact struct {
	Reason string
}

// AFact implements analysis.Fact.
func (*ImpureFact) AFact() {}

// bannedCalls maps package path → function name → reason. These are
// functions whose results differ across replicas or across runs.
var bannedCalls = map[string]map[string]string{
	"time": {
		"Now":   "reads the wall clock",
		"Since": "reads the wall clock",
		"Until": "reads the wall clock",
	},
	"runtime": {
		"NumGoroutine": "reads scheduler state",
		"NumCPU":       "reads host hardware state",
		"GOMAXPROCS":   "reads scheduler state",
		"Gosched":      "yields to the scheduler",
		"Caller":       "reads goroutine call-stack state",
		"Callers":      "reads goroutine call-stack state",
		"Stack":        "reads goroutine call-stack state",
	},
	"os": {
		"Getenv":    "reads the process environment",
		"Environ":   "reads the process environment",
		"LookupEnv": "reads the process environment",
		"Getpid":    "reads the process identity",
		"Hostname":  "reads the host identity",
	},
}

// clockBypass lists the time-package functions that read the wall clock
// or start real timers — exactly what an injected clock.Clock abstracts.
// Pure-value helpers (ParseDuration, Unix, Date) stay allowed.
var clockBypass = map[string]string{
	"Now":       "reads the wall clock",
	"Since":     "reads the wall clock",
	"Until":     "reads the wall clock",
	"Sleep":     "blocks on the real clock",
	"After":     "starts a real timer",
	"AfterFunc": "starts a real timer",
	"NewTimer":  "starts a real timer",
	"NewTicker": "starts a real ticker",
	"Tick":      "starts a real ticker",
}

func run(pass *analysis.Pass) error {
	checkSimClock(pass)
	propagate.Run[ImpureFact](pass, Directive, scanBody, func(f *propagate.Func) {
		if f.Reason == "" {
			return
		}
		d := analysis.Diagnostic{
			Pos:     f.Decl.Name.Pos(),
			Message: fmt.Sprintf("%s is marked %s but %s", f.Fn.Name(), Directive, f.Reason),
		}
		if f.Fix != nil {
			d.SuggestedFixes = []analysis.SuggestedFix{*f.Fix}
		}
		pass.Report(d)
	})
	return nil
}

// checkSimClock reports direct time-package clock and timer calls in a
// package whose package comment carries //hafw:simclock. The directive
// may sit on any one file's package doc (conventionally the package's
// main file) and covers the whole package. Test files are exempt: tests
// drive both real and virtual clocks by design.
func checkSimClock(pass *analysis.Pass) {
	annotated := false
	for _, file := range pass.Files {
		if astx.DocHasDirective(file.Doc, PackageDirective) {
			annotated = true
			break
		}
	}
	if !annotated {
		return
	}
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := astx.CalleeOf(pass.TypesInfo, call)
			if fn == nil || astx.PkgPath(fn) != "time" || astx.RecvType(fn) != nil {
				return true
			}
			if what, ok := clockBypass[fn.Name()]; ok {
				pass.Report(analysis.Diagnostic{
					Pos: call.Pos(),
					Message: fmt.Sprintf("time.%s %s, bypassing the injected clock in a %s package",
						fn.Name(), what, PackageDirective),
				})
			}
			return true
		})
	}
}

// scanBody records the first local nondeterminism reason and the static
// calls of one function. Function literals are treated as part of the
// enclosing function: they either run inline (sort comparators) or sit
// behind a `go` statement, which is itself banned.
func scanBody(pass *analysis.Pass, f *propagate.Func) {
	ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			f.Note("spawns a goroutine (scheduling-dependent)")
		case *ast.SelectStmt:
			f.Note("uses select (scheduling-dependent choice)")
		case *ast.RangeStmt:
			if reason, fix := mapRangeReason(pass, n); reason != "" && f.Note(reason) {
				f.Fix = fix
			}
		case *ast.CallExpr:
			fn := astx.CalleeOf(pass.TypesInfo, n)
			if fn == nil {
				return true
			}
			pkgPath := astx.PkgPath(fn)
			if astx.RecvType(fn) == nil {
				if reason, ok := bannedCalls[pkgPath][fn.Name()]; ok {
					f.Note(fmt.Sprintf("calls %s.%s, which %s", pkgPath, fn.Name(), reason))
					return true
				}
				if pkgPath == "math/rand" || pkgPath == "math/rand/v2" {
					f.Note(fmt.Sprintf("calls %s.%s, which uses the global random source", pkgPath, fn.Name()))
					return true
				}
			}
			f.Call(fn)
		}
		return true
	})
}

// mapRangeReason reports why a `range` over a map is order-sensitive: its
// body feeds iteration-ordered output (append to an outer slice, a
// channel send, an ordered-collection index write, or writer output)
// without a subsequent sort of the destination.
func mapRangeReason(pass *analysis.Pass, rng *ast.RangeStmt) (string, *analysis.SuggestedFix) {
	t := pass.TypesInfo.Types[rng.X].Type
	if t == nil {
		return "", nil
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return "", nil
	}

	type sink struct {
		dest string
		expr ast.Expr
	}
	var sinks []sink // append destinations
	reason := ""
	astx.InspectNoFuncLit(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			if reason == "" {
				reason = "sends map-iteration-ordered values on a channel"
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(pass, call) || i >= len(n.Lhs) {
					continue
				}
				if declaredInside(pass, rng, n.Lhs[i]) {
					continue
				}
				sinks = append(sinks, sink{dest: astx.ExprString(pass.Fset, n.Lhs[i]), expr: n.Lhs[i]})
			}
			for _, lhs := range n.Lhs {
				if idx, ok := lhs.(*ast.IndexExpr); ok {
					base := pass.TypesInfo.Types[idx.X].Type
					if base == nil {
						continue
					}
					switch base.Underlying().(type) {
					case *types.Slice, *types.Array, *types.Pointer:
						if !keyIndexed(pass, rng, idx.Index) && reason == "" {
							reason = "writes map-iteration-ordered values into a slice"
						}
					}
				}
			}
		case *ast.CallExpr:
			if fn := astx.CalleeOf(pass.TypesInfo, n); fn != nil {
				if astx.PkgPath(fn) == "fmt" && (fn.Name() == "Fprintf" || fn.Name() == "Fprintln" || fn.Name() == "Fprint") {
					if reason == "" {
						reason = "writes map-iteration-ordered output to a writer"
					}
				}
			}
		}
		return true
	})
	if reason != "" {
		return "ranges over a map with order-sensitive effects (" + reason + ")", nil
	}
	if len(sinks) == 0 {
		return "", nil
	}
	// append sinks are fine if the destination is sorted after the loop.
	var dests []string
	byDest := make(map[string]ast.Expr, len(sinks))
	for _, s := range sinks {
		dests = append(dests, s.dest)
		byDest[s.dest] = s.expr
	}
	unsorted := unsortedSinks(pass, rng, dests)
	if len(unsorted) == 0 {
		return "", nil
	}
	sort.Strings(unsorted)
	first := unsorted[0]
	var fix *analysis.SuggestedFix
	destType := pass.TypesInfo.Types[byDest[first]].Type
	if st, ok := sliceType(destType); ok {
		if f, ok := SortFix(pass.Fset, rng, first, st.Elem()); ok {
			fix = &f
		}
	}
	return fmt.Sprintf("ranges over a map appending to %q without sorting it afterwards", first), fix
}

// declaredInside reports whether the expression is (rooted at) a variable
// declared within the range statement itself — appends to loop-local
// accumulators don't leak iteration order out of the loop.
func declaredInside(pass *analysis.Pass, rng *ast.RangeStmt, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	return obj != nil && obj.Pos() >= rng.Pos() && obj.Pos() < rng.End()
}

// keyIndexed reports whether the index expression is exactly the range
// key variable (writing `out[k] = v` keyed by the map key is
// order-independent).
func keyIndexed(pass *analysis.Pass, rng *ast.RangeStmt, index ast.Expr) bool {
	keyID, ok := rng.Key.(*ast.Ident)
	if !ok {
		return false
	}
	idxID, ok := ast.Unparen(index).(*ast.Ident)
	if !ok {
		return false
	}
	keyObj := pass.TypesInfo.Defs[keyID]
	if keyObj == nil {
		keyObj = pass.TypesInfo.Uses[keyID]
	}
	return keyObj != nil && pass.TypesInfo.Uses[idxID] == keyObj
}

// unsortedSinks returns the append destinations that are not passed to a
// sort call in a statement after the range loop in the same block chain.
func unsortedSinks(pass *analysis.Pass, rng *ast.RangeStmt, sinks []string) []string {
	sorted := make(map[string]bool)
	// Find the statement list containing rng and scan what follows it.
	for _, file := range pass.Files {
		if rng.Pos() < file.Pos() || rng.End() > file.End() {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			block, ok := n.(*ast.BlockStmt)
			if !ok {
				return true
			}
			for i, s := range block.List {
				if s != ast.Stmt(rng) {
					continue
				}
				for _, after := range block.List[i+1:] {
					markSortedArgs(pass, after, sorted)
				}
			}
			return true
		})
	}
	var out []string
	for _, s := range sinks {
		if !sorted[s] {
			out = append(out, s)
		}
	}
	return out
}

// markSortedArgs records destinations passed to sort/slices sorting
// functions anywhere within stmt.
func markSortedArgs(pass *analysis.Pass, stmt ast.Stmt, sorted map[string]bool) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := astx.CalleeOf(pass.TypesInfo, call)
		if fn == nil || len(call.Args) == 0 {
			return true
		}
		switch astx.PkgPath(fn) {
		case "sort", "slices":
			sorted[astx.ExprString(pass.Fset, call.Args[0])] = true
		}
		return true
	})
}

func sliceType(t types.Type) (*types.Slice, bool) {
	if t == nil {
		return nil, false
	}
	st, ok := t.Underlying().(*types.Slice)
	return st, ok
}

func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// SortFix builds the mechanical `sort.Slice` insertion fix for an
// unsorted append sink when the element type is ordered; used by the
// standalone driver's -fix mode. (Defined here so the knowledge of what
// the determinism analyzer considers "sorted" stays in one place.)
func SortFix(fset *token.FileSet, rng *ast.RangeStmt, dest string, elem types.Type) (analysis.SuggestedFix, bool) {
	basic, ok := elem.Underlying().(*types.Basic)
	if !ok || basic.Info()&(types.IsOrdered) == 0 {
		return analysis.SuggestedFix{}, false
	}
	indent := astx.Indent(fset, rng.Pos())
	stmt := fmt.Sprintf("%ssort.Slice(%s, func(i, j int) bool { return %s[i] < %s[j] })",
		indent, dest, dest, dest)
	return analysis.SuggestedFix{
		Message: fmt.Sprintf("sort %s after the map range", dest),
		TextEdits: []analysis.TextEdit{{
			Pos:     rng.End(),
			End:     rng.End(),
			NewText: []byte(stmt),
		}},
	}, true
}
