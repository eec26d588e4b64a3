// Package leakcheck implements the halint pass that finds what a node
// acquires and never releases. A highly available node runs for months:
// a goroutine whose loop can never exit, or a ticker that is never
// stopped, is a slow leak that surfaces as memory growth and scheduler
// noise long after the PR that introduced it merged; a span that is never
// ended silently drops a latency sample, which skews exactly the failover
// measurements the framework exists to report. The failure-detector and
// view-change machinery make heavy use of tickers, spans and background
// loops, so the release discipline is enforced, not remembered.
//
// Three checks:
//
//   - `go` statements whose function (literal or named, same-package or
//     imported via a ForeverFact) contains a `for` loop with no condition
//     and no return/break that leaves it: there is no stop path, the
//     goroutine runs until process exit.
//   - Values that must be released on every path leaving the function
//     that acquired them: spans opened with (*trace.Recorder).StartSpan
//     or (*obs.Tracer).StartRoot / StartChild (→ End), and tickers and
//     timers from time.NewTicker / NewTimer or a clock.Clock's (→ Stop).
//     One flow walk tracks them all. Each use of a tracked value releases
//     it, is neutral, or hands it off: returning it, storing it, passing
//     it on or capturing it in a function literal gives the release to
//     the new owner (as the lostcancel vet check treats context cancel
//     functions), and `defer` of the release covers every exit. Any other
//     mention of a span hands it off; a timer's or ticker's .C and .Reset
//     are neutral, and a select case receiving from a Timer's C releases
//     it on that branch (the timer has fired). A leaked ticker or timer
//     gets a mechanical `defer t.Stop()` fix when it is not made in a
//     loop.
//   - time.Tick (always leaks its ticker) and time.After inside loops
//     (leaks one timer per iteration until it fires).
//
// Goroutine and timer checks skip _test.go files: tests start
// process-lifetime helpers deliberately and the process is about to exit
// anyway. Span checks cover test files too.
package leakcheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"hafw/internal/analysis"
	"hafw/internal/analyzers/astx"
	"hafw/internal/analyzers/flow"
)

// Analyzer is the leakcheck pass.
var Analyzer = &analysis.Analyzer{
	Name:      "leakcheck",
	Doc:       "checks that goroutines have a stop path (a for loop that can exit), that spans are ended and tickers/timers stopped on every return path (or handed off), and flags time.Tick and time.After in loops",
	Run:       run,
	FactTypes: []analysis.Fact{(*ForeverFact)(nil)},
}

// ForeverFact marks a function whose body contains a for loop that can
// never exit; `go`-calling it from another package is a leak.
type ForeverFact struct {
	Loops bool
}

// AFact implements analysis.Fact.
func (*ForeverFact) AFact() {}

func run(pass *analysis.Pass) error {
	isTest := func(f *ast.File) bool {
		return strings.HasSuffix(pass.Fset.Position(f.Package).Filename, "_test.go")
	}

	// Pass 1: which named functions loop forever? Their facts serve both
	// same-package `go` statements and importers.
	forever := make(map[*types.Func]bool)
	for _, f := range pass.Files {
		if isTest(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if hasInescapableLoop(fd.Body) {
				forever[fn] = true
				pass.ExportObjectFact(fn, &ForeverFact{Loops: true})
			}
		}
	}

	// Pass 2: go statements, time calls, and every function body's
	// release obligations.
	for _, f := range pass.Files {
		test := isTest(f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if !test {
					checkGo(pass, n, forever)
				}
			case *ast.FuncDecl:
				if n.Body != nil && !test {
					checkTimeCalls(pass, n.Body)
				}
				checkReleases(pass, n.Body, test)
			case *ast.FuncLit:
				checkReleases(pass, n.Body, test)
			}
			return true
		})
	}
	return nil
}

// checkGo reports a `go` statement whose function can never exit.
func checkGo(pass *analysis.Pass, g *ast.GoStmt, forever map[*types.Func]bool) {
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		if hasInescapableLoop(lit.Body) {
			pass.Reportf(g.Pos(), "goroutine has no stop path: its for loop can never exit; add a ctx.Done()/closed-channel case that returns")
		}
		return
	}
	fn := astx.CalleeOf(pass.TypesInfo, g.Call)
	if fn == nil {
		return
	}
	bad := false
	name := fn.Name()
	if fn.Pkg() == pass.Pkg {
		bad = forever[fn]
	} else {
		var fact ForeverFact
		bad = pass.ImportObjectFact(fn, &fact) && fact.Loops
		if fn.Pkg() != nil {
			name = fn.Pkg().Name() + "." + name
		}
	}
	if bad {
		pass.Reportf(g.Pos(), "goroutine runs %s, which has no stop path (its for loop can never exit); add a ctx.Done()/closed-channel case that returns", name)
	}
}

// hasInescapableLoop reports whether the body contains a condition-less
// for loop that no return, break, or goto ever leaves. Function literals
// are skipped: their bodies run when called, not where written.
func hasInescapableLoop(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if fs, ok := n.(*ast.ForStmt); ok && fs.Cond == nil && !escapable(fs) {
			found = true
			return false
		}
		return true
	})
	return found
}

// escapable reports whether control can leave the given condition-less
// loop: a return, a goto or labeled break targeting a statement outside
// the loop, or an unlabeled break binding to the loop itself (not to a
// nested for/select/switch).
func escapable(loop *ast.ForStmt) bool {
	inner := make(map[string]bool) // labels declared inside the loop body
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if ls, ok := n.(*ast.LabeledStmt); ok {
			inner[ls.Label.Name] = true
		}
		return true
	})
	esc := false
	depth := 0 // nesting inside statements that absorb unlabeled break
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if esc {
			return
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return
		case *ast.ReturnStmt:
			esc = true
			return
		case *ast.BranchStmt:
			switch n.Tok {
			case token.BREAK:
				if n.Label == nil {
					if depth == 0 {
						esc = true
					}
				} else if !inner[n.Label.Name] {
					esc = true
				}
			case token.GOTO:
				if n.Label != nil && !inner[n.Label.Name] {
					esc = true
				}
			}
			return
		case *ast.ForStmt, *ast.RangeStmt, *ast.SelectStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt:
			depth++
			defer func() { depth-- }()
		}
		astx.Children(n, walk)
	}
	astx.Children(loop.Body, walk)
	return esc
}

// inLoop reports whether pos lies inside a for or range statement of
// body.
func inLoop(body *ast.BlockStmt, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			found = found || n.Pos() <= pos && pos < n.End()
		}
		return !found
	})
	return found
}

// checkTimeCalls flags time.Tick and time.After in a loop.
func checkTimeCalls(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := astx.CalleeOf(pass.TypesInfo, call)
		if fn == nil || astx.PkgPath(fn) != "time" || astx.RecvType(fn) != nil {
			return true // (time.Time).After is a method, not the timer
		}
		switch fn.Name() {
		case "Tick":
			pass.Reportf(call.Pos(), "time.Tick leaks its ticker (it can never be stopped); use time.NewTicker with defer Stop")
		case "After":
			if inLoop(body, call.Pos()) {
				pass.Reportf(call.Pos(), "time.After in a loop leaks a timer per iteration until it fires; use one time.NewTimer and Stop it when done")
			}
		}
		return true
	})
}

// obligation is the flow.Hold payload for one value that must be
// released.
type obligation struct {
	pos     token.Pos // where a leak is reported
	message string
	fix     []analysis.SuggestedFix
	release string // the releasing method: End or Stop
	timer   bool   // a timer or ticker: other selectors (.C, .Reset) are neutral
	fires   bool   // a timer: a select case receiving from its C releases it
}

// checkReleases walks one function body and reports every obligation
// still definitely held where the function returns, or where a loop
// iteration that acquired it ends. Timers are not tracked in test files.
func checkReleases(pass *analysis.Pass, body *ast.BlockStmt, test bool) {
	if body == nil {
		return
	}
	reported := make(map[token.Pos]bool)
	report := func(h flow.Hold) {
		ob := h.Data.(*obligation)
		if h.Level != flow.Definitely || h.Deferred || reported[ob.pos] {
			return
		}
		reported[ob.pos] = true
		pass.Report(analysis.Diagnostic{Pos: ob.pos, Message: ob.message, SuggestedFixes: ob.fix})
	}
	flow.Walk(body, flow.Hooks{
		OnAtom: func(n ast.Node, st flow.State) {
			if _, ok := n.(*ast.SelectStmt); ok {
				return // the walk hands each clause's comm to OnComm
			}
			if key, ob := acquire(pass, body, n, test); ob != nil {
				st[key] = flow.Hold{Level: flow.Definitely, Data: ob}
				return
			}
			use(pass, n, st)
		},
		OnComm: func(comm ast.Stmt, st flow.State) {
			if comm == nil {
				return
			}
			astx.InspectNoFuncLit(comm, func(m ast.Node) bool {
				if recv, ok := m.(*ast.UnaryExpr); ok && recv.Op == token.ARROW {
					c := ast.Unparen(recv.X)
					if call, ok := c.(*ast.CallExpr); ok && len(call.Args) == 0 {
						c = call.Fun // a clock.Timer's C()
					}
					if sel, ok := c.(*ast.SelectorExpr); ok && sel.Sel.Name == "C" {
						if key, ob := tracked(pass, sel.X, st); ob != nil && ob.fires {
							delete(st, key)
						}
					}
				}
				return true
			})
			use(pass, comm, st)
		},
		OnIterEnd: func(loop ast.Stmt, st flow.State) {
			for _, h := range st {
				if ob := h.Data.(*obligation); loop.Pos() <= ob.pos && ob.pos < loop.End() {
					report(h)
				}
			}
		},
		OnExit: func(_ ast.Node, st flow.State) {
			for _, h := range st {
				report(h)
			}
		},
	})
}

// acquire recognizes `x := call` (or `x = call`) where call opens an
// obligation and x is a variable of the walked function.
func acquire(pass *analysis.Pass, body *ast.BlockStmt, n ast.Node, test bool) (string, *obligation) {
	as, ok := n.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return "", nil
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	call, isCall := as.Rhs[0].(*ast.CallExpr)
	if !ok || !isCall {
		return "", nil
	}
	obj := pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = pass.TypesInfo.Uses[id]
	}
	if obj == nil || obj.Pos() < body.Pos() || obj.Pos() >= body.End() {
		return "", nil
	}
	fn := astx.CalleeOf(pass.TypesInfo, call)
	x := id.Name
	if isStartSpan(fn) {
		return objKey(obj), &obligation{
			pos:     call.Pos(),
			message: fmt.Sprintf("span %s is not ended on every return path; add defer %s.End()", x, x),
			release: "End",
		}
	}
	word := timerCtor(fn)
	if word == "" || test {
		return "", nil
	}
	ob := &obligation{
		pos: as.Pos(),
		message: fmt.Sprintf("%s.%s result %s is never stopped; the %s leaks — add defer %s.Stop()",
			fn.Pkg().Name(), fn.Name(), x, word, x),
		release: "Stop",
		timer:   true,
		fires:   word == "timer",
	}
	// The defer fix is only mechanical outside loops: a defer inside a
	// loop piles up until the function returns.
	if !inLoop(body, as.Pos()) {
		ob.fix = []analysis.SuggestedFix{{
			Message: fmt.Sprintf("stop %s when the function returns", x),
			TextEdits: []analysis.TextEdit{{
				Pos:     as.End(),
				End:     as.End(),
				NewText: []byte(astx.Indent(pass.Fset, as.Pos()) + "defer " + x + ".Stop()"),
			}},
		}}
	}
	return objKey(obj), ob
}

// use applies one atom's mentions of tracked values to st: a call of the
// release method releases (deferred, it covers every exit); a neutral
// selector keeps the obligation; any other mention, including a capture
// by a function literal, hands it off.
func use(pass *analysis.Pass, n ast.Node, st flow.State) {
	if def, ok := n.(*ast.DeferStmt); ok {
		if sel, ok := ast.Unparen(def.Call.Fun).(*ast.SelectorExpr); ok {
			if key, ob := tracked(pass, sel.X, st); ob != nil && sel.Sel.Name == ob.release {
				h := st[key]
				h.Deferred = true
				st[key] = h
				return
			}
		}
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			ast.Inspect(m.Body, func(k ast.Node) bool {
				if id, ok := k.(*ast.Ident); ok {
					if key, ob := tracked(pass, id, st); ob != nil {
						delete(st, key)
					}
				}
				return true
			})
			return false
		case *ast.SelectorExpr:
			if key, ob := tracked(pass, m.X, st); ob != nil {
				if !ob.timer || m.Sel.Name == ob.release {
					delete(st, key)
				}
				return false
			}
		case *ast.Ident:
			if key, ob := tracked(pass, m, st); ob != nil {
				delete(st, key)
			}
		}
		return true
	})
}

// tracked resolves e to the obligation st holds for it, if any.
func tracked(pass *analysis.Pass, e ast.Expr, st flow.State) (string, *obligation) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return "", nil
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		return "", nil
	}
	key := objKey(obj)
	if h, ok := st[key]; ok {
		return key, h.Data.(*obligation)
	}
	return "", nil
}

func objKey(obj types.Object) string {
	return fmt.Sprintf("%s@%d", obj.Name(), obj.Pos())
}

// isStartSpan reports whether fn opens a tracked span:
// (*trace.Recorder).StartSpan, (*obs.Tracer).StartRoot, or
// (*obs.Tracer).StartChild.
func isStartSpan(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	switch fn.Name() {
	case "StartSpan", "StartRoot", "StartChild":
	default:
		return false
	}
	named := astx.RecvNamed(fn)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	path := named.Obj().Pkg().Path()
	return astx.ModulePathSuffix(path, "internal/trace") || astx.ModulePathSuffix(path, "internal/obs")
}

// timerCtor returns "ticker" or "timer" when fn is NewTicker or NewTimer
// of package time or of the injected clock (clock.Clock), else "".
func timerCtor(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	named := astx.RecvNamed(fn)
	switch {
	case named == nil && astx.PkgPath(fn) == "time":
	case named != nil && named.Obj().Pkg() != nil && astx.ModulePathSuffix(named.Obj().Pkg().Path(), "internal/clock"):
	default:
		return ""
	}
	switch fn.Name() {
	case "NewTicker":
		return "ticker"
	case "NewTimer":
		return "timer"
	}
	return ""
}
