// Package lockorder implements the halint pass that guards the
// framework's locking discipline. The GCS stack (core, vsync, gcs) keeps
// blocking work out of critical sections and acquires its mutexes in one
// global order; one walk of every function body with its held-lock state
// checks three rules:
//
//   - Release: every Lock is paired with an Unlock on every return path
//     of the same function (with a mechanical `defer mu.Unlock()` fix).
//     The codebase's convention is that a function either owns the whole
//     lock/unlock pair or is a `...Locked` helper that takes the mutex as
//     a precondition, so single-function analysis matches the discipline.
//   - Blocking: a sync.Mutex or sync.RWMutex is never held across a
//     channel send, receive or select, or a transport Send, Broadcast or
//     Dial; either can block indefinitely (under a view change, forever).
//   - Order: an edge A → B in the global lock-acquisition graph means
//     some path acquires mutex B while holding mutex A. Two paths that
//     acquire the same pair in opposite orders can deadlock under
//     concurrency even though each is individually correct, and -race
//     does not reliably catch it because the interleaving must occur.
//
// Release and blocking are keyed by the receiver expression as written
// (`s.mu`, with R/W mode). Order is keyed by package- and type-scoped
// mutex identity: a mutex field is named by the struct type that declares
// it ("pkg.(Type).field"), a package-level mutex by its variable name
// ("pkg.var"). Two instances of the same struct therefore share one graph
// node; that is deliberate — the codebase's lock hierarchy (DESIGN.md
// "Lock hierarchy") is defined over types, and self-edges on a type-level
// node are reported as potential self-deadlock.
//
// The order check is interprocedural: each function's transitively
// acquired lock set is exported as an object fact, so a call made while
// holding a mutex contributes edges to everything the callee (even in
// another package) may acquire. Per-package edge lists are folded forward
// through package facts, and each package reports any cycle that one of
// its own edges completes, with a concrete witness path.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"hafw/internal/analysis"
	"hafw/internal/analyzers/astx"
	"hafw/internal/analyzers/flow"
)

// Analyzer is the lockorder pass.
var Analyzer = &analysis.Analyzer{
	Name:      "lockorder",
	Doc:       "checks that mutexes are released on every return path and never held across channel operations or transport calls, and builds the global lock-acquisition graph across packages to report lock-order cycles (potential deadlocks) with a witness path",
	Run:       run,
	FactTypes: []analysis.Fact{(*AcquiresFact)(nil), (*GraphFact)(nil)},
}

// AcquiresFact records the set of mutexes a function may acquire,
// directly or through its static callees.
type AcquiresFact struct {
	Locks []string
}

// AFact implements analysis.Fact.
func (*AcquiresFact) AFact() {}

// Edge is one arc of the lock-acquisition graph: To was acquired while
// From was held, at Pos (file:line) inside function Via.
type Edge struct {
	From, To string
	Pos      string
	Via      string
}

// GraphFact is the package fact carrying every acquisition edge visible
// at this package: its own plus those folded in from its dependencies.
type GraphFact struct {
	Edges []Edge
}

// AFact implements analysis.Fact.
func (*GraphFact) AFact() {}

// releaseOf maps each sync acquire method to its release.
var releaseOf = map[string]string{"Lock": "Unlock", "RLock": "RUnlock"}

func isRelease(name string) bool { return name == "Unlock" || name == "RUnlock" }

// funcInfo is the per-function analysis state.
type funcInfo struct {
	fn       *types.Func
	body     *ast.BlockStmt
	acquires map[string]bool // transitively acquired lock identities
	calls    []*types.Func   // same-package static callees
}

func run(pass *analysis.Pass) error {
	var infos []*funcInfo
	byFunc := make(map[*types.Func]*funcInfo)

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
			info := &funcInfo{fn: fn, body: fd.Body, acquires: make(map[string]bool)}
			collect(pass, fd.Body, info)
			infos = append(infos, info)
			byFunc[fn] = info
		}
	}

	// Fixpoint: fold same-package callees' acquire sets into each
	// function until nothing changes (cross-package callees were resolved
	// through facts during collect).
	for changed := true; changed; {
		changed = false
		for _, info := range infos {
			for _, callee := range info.calls {
				c, ok := byFunc[callee]
				if !ok {
					continue
				}
				for l := range c.acquires {
					if !info.acquires[l] {
						info.acquires[l] = true
						changed = true
					}
				}
			}
		}
	}

	for _, info := range infos {
		if len(info.acquires) > 0 {
			pass.ExportObjectFact(info.fn, &AcquiresFact{Locks: sortedKeys(info.acquires)})
		}
	}

	// Second pass: walk each function with the held-lock state, reporting
	// release and blocking findings and emitting edges for direct
	// acquisitions and for calls into lock-acquiring callees.
	var own []Edge
	seenEdge := make(map[string]bool)
	addEdge := func(e Edge) {
		key := e.From + "\x00" + e.To
		if seenEdge[key] {
			return
		}
		seenEdge[key] = true
		own = append(own, e)
	}
	for _, info := range infos {
		walk(pass, info.fn.Name(), info.body, byFunc, addEdge)
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				// Each literal (goroutine body, callback) is its own
				// function: checked and contributing edges, but without
				// facts, since it has no addressable object.
				walk(pass, "a function literal", fl.Body, byFunc, addEdge)
			}
			return true
		})
	}

	// Fold in the graphs of every direct import; each import already
	// folded its own dependencies, so the union is transitive.
	merged := append([]Edge(nil), own...)
	for _, imp := range pass.Pkg.Imports() {
		var g GraphFact
		if !pass.ImportPackageFact(imp, &g) {
			continue
		}
		for _, e := range g.Edges {
			key := e.From + "\x00" + e.To
			if !seenEdge[key] {
				seenEdge[key] = true
				merged = append(merged, e)
			}
		}
	}
	pass.ExportPackageFact(&GraphFact{Edges: merged})

	reportCycles(pass, own, merged)
	return nil
}

// collect gathers a function's direct lock acquisitions and call edges
// (pass 1). Synchronously-called function literals are included: a lock
// acquired in a nested literal is still an acquisition this function's
// callers may reach. `go` statements are excluded — the spawned goroutine
// starts with an empty held-set, so its acquisitions are not the
// caller's (its literal body, or the named callee, contributes edges on
// its own).
func collect(pass *analysis.Pass, body *ast.BlockStmt, info *funcInfo) {
	goCalls, goLits := goSpawned(body)
	seen := make(map[*types.Func]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok && goLits[fl] {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if goCalls[call] {
			return true // arguments still evaluate synchronously: descend
		}
		if fn := mutexMethod(pass, call); fn != nil {
			if releaseOf[fn.Name()] != "" {
				if id := LockIdentity(pass, call); id != "" {
					info.acquires[id] = true
				}
			}
			return true
		}
		fn := astx.CalleeOf(pass.TypesInfo, call)
		if fn == nil || seen[fn] {
			return true
		}
		seen[fn] = true
		if rt := astx.RecvType(fn); rt != nil && types.IsInterface(rt) {
			return true // dynamic dispatch: unresolvable statically
		}
		if fn.Pkg() == pass.Pkg {
			info.calls = append(info.calls, fn)
			return true
		}
		var acq AcquiresFact
		if pass.ImportObjectFact(fn, &acq) {
			for _, l := range acq.Locks {
				info.acquires[l] = true
			}
		}
		return true
	})
}

// lockInfo is the flow.Hold payload for one acquired mutex.
type lockInfo struct {
	key     string    // the flow.State key: lockKey of the receiver
	id      string    // LockIdentity; "" keeps the lock out of the order graph
	pos     token.Pos // the Lock/RLock call
	at      string    // pos rendered for diagnostics
	stmtEnd token.Pos // end of the acquiring statement (NoPos if nested)
	call    string    // rendered "s.mu.Lock()"
	unlock  string    // rendered "s.mu.Unlock()"
	recv    string    // rendered receiver, e.g. "s.mu"
}

// walker interprets one function body with the held-lock state (pass 2).
type walker struct {
	pass    *analysis.Pass
	name    string // the function, as named in order diagnostics
	byFunc  map[*types.Func]*funcInfo
	addEdge func(Edge)
	goCalls map[*ast.CallExpr]bool
	// untracked collects mutexes manipulated in ways the walker cannot
	// follow (TryLock): no release or blocking findings for them rather
	// than a guess. hasUnlock records mutexes the function releases by
	// hand somewhere; the defer-insertion fix is only safe without one.
	untracked, hasUnlock map[string]bool
	// One release finding per Lock call, one re-entrancy finding per call.
	released, reentered map[token.Pos]bool
}

func walk(pass *analysis.Pass, name string, body *ast.BlockStmt, byFunc map[*types.Func]*funcInfo, addEdge func(Edge)) {
	goCalls, _ := goSpawned(body)
	w := &walker{
		pass: pass, name: name, byFunc: byFunc, addEdge: addEdge, goCalls: goCalls,
		untracked: make(map[string]bool), hasUnlock: make(map[string]bool),
		released: make(map[token.Pos]bool), reentered: make(map[token.Pos]bool),
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := mutexMethod(pass, call); fn != nil {
				switch name := fn.Name(); {
				case name == "TryLock" || name == "TryRLock":
					w.untracked[lockKey(pass, call, fn)] = true
				case isRelease(name):
					w.hasUnlock[lockKey(pass, call, fn)] = true
				}
			}
		}
		return true
	})
	flow.Walk(body, flow.Hooks{
		OnAtom:     w.atom,
		OnExit:     w.exit,
		Terminates: func(n ast.Node) bool { return terminates(pass, n) },
	})
}

// held returns the payloads of st in key order, so findings and edges do
// not depend on map iteration.
func held(st flow.State) []*lockInfo {
	out := make([]*lockInfo, 0, len(st))
	for _, h := range st {
		out = append(out, h.Data.(*lockInfo))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// blocker returns the held lock that blocking findings name, or nil.
func (w *walker) blocker(st flow.State) *lockInfo {
	for _, li := range held(st) {
		if !w.untracked[li.key] {
			return li
		}
	}
	return nil
}

// atom interprets one atomic statement: acquires and releases mutexes,
// adds order edges, and reports blocking operations under a mutex.
func (w *walker) atom(n ast.Node, st flow.State) {
	pass := w.pass
	if sel, ok := n.(*ast.SelectStmt); ok {
		if li := w.blocker(st); li != nil {
			pass.Reportf(sel.Pos(), "select while %s is held (acquired at %s); blocking channel operations must not run under a mutex",
				li.recv, li.at)
		}
		return
	}
	// Scan the atom's subtree (sans function literals, which run later).
	astx.InspectNoFuncLit(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.SendStmt:
			if li := w.blocker(st); li != nil {
				pass.Reportf(m.Arrow, "channel send while %s is held (acquired at %s)", li.recv, li.at)
			}
		case *ast.UnaryExpr:
			if m.Op != token.ARROW {
				break
			}
			if li := w.blocker(st); li != nil {
				pass.Reportf(m.OpPos, "channel receive while %s is held (acquired at %s)", li.recv, li.at)
			}
		case *ast.CallExpr:
			w.call(n, m, st)
		}
		return true
	})
}

// call interprets one call inside atom n.
func (w *walker) call(n ast.Node, call *ast.CallExpr, st flow.State) {
	pass := w.pass
	callee := astx.CalleeOf(pass.TypesInfo, call)
	if callee != nil && isTransportCall(callee) && !inTransportLayer(pass.Pkg.Path()) {
		if li := w.blocker(st); li != nil {
			pass.Reportf(call.Pos(), "transport call %s while %s is held (acquired at %s); transport I/O can block and must not run under a mutex",
				callee.Name(), li.recv, li.at)
		}
	}
	if w.goCalls[call] {
		return // runs on a fresh goroutine: no held locks
	}
	if fn := mutexMethod(pass, call); fn != nil {
		key := lockKey(pass, call, fn)
		switch {
		case releaseOf[fn.Name()] != "":
			id := LockIdentity(pass, call)
			if id != "" {
				w.order(call, []string{id}, "", st)
			}
			recv := astx.ExprString(pass.Fset, astx.RecvOf(call))
			stmtEnd := token.NoPos
			if es, ok := n.(*ast.ExprStmt); ok && es.X == ast.Expr(call) {
				stmtEnd = es.End()
			}
			st[key] = flow.Hold{Level: flow.Definitely, Data: &lockInfo{
				key: key, id: id, pos: call.Pos(), at: pass.Fset.Position(call.Pos()).String(), stmtEnd: stmtEnd,
				call: recv + "." + fn.Name() + "()", unlock: recv + "." + releaseOf[fn.Name()] + "()", recv: recv,
			}}
		case isRelease(fn.Name()):
			if _, ok := n.(*ast.DeferStmt); !ok {
				delete(st, key)
			} else if h, ok := st[key]; ok {
				// Deferred release covers every exit, and the lock is held
				// until return: later acquisitions still order after it.
				h.Deferred = true
				st[key] = h
			}
		}
		return
	}
	if callee == nil || len(st) == 0 {
		return
	}
	if rt := astx.RecvType(callee); rt != nil && types.IsInterface(rt) {
		return
	}
	var locks []string
	if callee.Pkg() == pass.Pkg {
		if ci, ok := w.byFunc[callee]; ok {
			locks = sortedKeys(ci.acquires)
		}
	} else {
		var acq AcquiresFact
		if pass.ImportObjectFact(callee, &acq) {
			locks = acq.Locks
		}
	}
	w.order(call, locks, callee.Name(), st)
}

// order adds the edges from every held lock to each lock the call
// acquires — directly (callee "") or through callee — and reports a lock
// acquired while already held.
func (w *walker) order(call *ast.CallExpr, locks []string, callee string, st flow.State) {
	pos := w.pass.Fset.Position(call.Pos()).String()
	for _, l := range locks {
		for _, h := range held(st) {
			switch {
			case h.id == "":
			case h.id != l:
				via := w.name
				if callee != "" {
					via += " → " + callee
				}
				w.addEdge(Edge{From: h.id, To: l, Pos: pos, Via: via})
			case w.reentered[call.Pos()]:
			case callee == "":
				w.reentered[call.Pos()] = true
				w.pass.Reportf(call.Pos(),
					"%s acquires %s while already holding it (acquired at %s); a re-entrant acquisition self-deadlocks, and two instances locked without a canonical order can deadlock against each other",
					w.name, l, h.at)
			default:
				w.reentered[call.Pos()] = true
				w.pass.Reportf(call.Pos(),
					"%s calls %s, which may acquire %s, while holding it (acquired at %s); sync mutexes are not reentrant",
					w.name, callee, l, h.at)
			}
		}
	}
}

// exit reports each mutex definitely held, and not released by a defer,
// at a return.
func (w *walker) exit(_ ast.Node, st flow.State) {
	for _, li := range held(st) {
		h := st[li.key]
		if h.Level != flow.Definitely || h.Deferred || w.untracked[li.key] || w.released[li.pos] {
			continue
		}
		w.released[li.pos] = true
		d := analysis.Diagnostic{
			Pos:     li.pos,
			Message: fmt.Sprintf("%s is not released on every return path; unlock or use defer %s", li.call, li.unlock),
		}
		if !w.hasUnlock[li.key] && li.stmtEnd.IsValid() {
			d.SuggestedFixes = []analysis.SuggestedFix{{
				Message: fmt.Sprintf("defer %s after the %s", li.unlock, li.call),
				TextEdits: []analysis.TextEdit{{
					Pos:     li.stmtEnd,
					End:     li.stmtEnd,
					NewText: []byte(astx.Indent(w.pass.Fset, li.pos) + "defer " + li.unlock),
				}},
			}}
		}
		w.pass.Report(d)
	}
}

// goSpawned indexes the call expressions (and literal callees) of every
// `go` statement in a body, so lock analysis can treat them as starting
// with an empty held-set.
func goSpawned(body *ast.BlockStmt) (map[*ast.CallExpr]bool, map[*ast.FuncLit]bool) {
	calls := make(map[*ast.CallExpr]bool)
	lits := make(map[*ast.FuncLit]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			calls[g.Call] = true
			if fl, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
				lits[fl] = true
			}
		}
		return true
	})
	return calls, lits
}

// reportCycles finds cycles in the merged graph that an edge of this
// package completes, and reports one witness per cycle node set.
func reportCycles(pass *analysis.Pass, own, merged []Edge) {
	adj := make(map[string][]Edge)
	for _, e := range merged {
		adj[e.From] = append(adj[e.From], e)
	}
	for from := range adj {
		sort.Slice(adj[from], func(i, j int) bool { return adj[from][i].To < adj[from][j].To })
	}
	reported := make(map[string]bool)
	for _, e := range own {
		path := findPath(adj, e.To, e.From)
		if path == nil {
			continue
		}
		cycle := append([]Edge{e}, path...)
		var nodes []string
		for _, c := range cycle {
			nodes = append(nodes, c.From)
		}
		sort.Strings(nodes)
		key := strings.Join(nodes, "→")
		if reported[key] {
			continue
		}
		reported[key] = true
		var b strings.Builder
		fmt.Fprintf(&b, "lock-order cycle (potential deadlock): %s → %s in %s", e.From, e.To, e.Via)
		for _, c := range path {
			fmt.Fprintf(&b, "; %s → %s in %s (%s)", c.From, c.To, c.Via, c.Pos)
		}
		pass.Reportf(edgeTokenPos(pass, e), "%s", b.String())
	}
}

// edgeTokenPos recovers a token.Pos for an own-package edge from its
// recorded position string, so the diagnostic lands on the acquiring line.
func edgeTokenPos(pass *analysis.Pass, e Edge) token.Pos {
	want := e.Pos
	var found token.Pos
	for _, file := range pass.Files {
		tf := pass.Fset.File(file.Pos())
		if tf == nil {
			continue
		}
		if !strings.HasPrefix(want, tf.Name()+":") {
			continue
		}
		var line, col int
		if _, err := fmt.Sscanf(want[len(tf.Name())+1:], "%d:%d", &line, &col); err != nil || line < 1 || line > tf.LineCount() {
			continue
		}
		found = tf.LineStart(line)
		break
	}
	if !found.IsValid() && len(pass.Files) > 0 {
		return pass.Files[0].Pos()
	}
	return found
}

// findPath searches the graph for a path from → to, returning its edges.
func findPath(adj map[string][]Edge, from, to string) []Edge {
	visited := map[string]bool{from: true}
	var dfs func(node string) []Edge
	dfs = func(node string) []Edge {
		for _, e := range adj[node] {
			if e.To == to {
				return []Edge{e}
			}
			if visited[e.To] {
				continue
			}
			visited[e.To] = true
			if rest := dfs(e.To); rest != nil {
				return append([]Edge{e}, rest...)
			}
		}
		return nil
	}
	return dfs(from)
}

// LockIdentity names the mutex operated on by a sync.Mutex/RWMutex method
// call, scoped to the type or package that declares it: a struct field
// becomes "pkg.(Type).field", a package-level variable "pkg.var", an
// embedded mutex "pkg.(Type)". Locals and unresolvable receivers return
// "" (untracked: a mutex that never outlives one call cannot participate
// in a cross-goroutine cycle).
func LockIdentity(pass *analysis.Pass, call *ast.CallExpr) string {
	recv := astx.RecvOf(call)
	if recv == nil {
		return ""
	}
	switch r := ast.Unparen(recv).(type) {
	case *ast.SelectorExpr:
		// x.mu: name the field by its declaring struct's type.
		if sel, ok := pass.TypesInfo.Selections[r]; ok && sel.Kind() == types.FieldVal {
			owner := namedOf(sel.Recv())
			if owner == nil || owner.Obj().Pkg() == nil {
				return ""
			}
			return owner.Obj().Pkg().Path() + ".(" + owner.Obj().Name() + ")." + r.Sel.Name
		}
		// pkg.Mu: a package-qualified variable.
		if obj, ok := pass.TypesInfo.Uses[r.Sel].(*types.Var); ok && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name()
		}
		return ""
	case *ast.Ident:
		obj, ok := pass.TypesInfo.Uses[r].(*types.Var)
		if !ok || obj.Pkg() == nil {
			return ""
		}
		if obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name()
		}
		// A local whose type embeds the mutex still identifies the type;
		// a bare local sync.Mutex stays untracked (it cannot outlive the
		// function, so it cannot participate in a cross-goroutine cycle).
		if named := namedOf(obj.Type()); named != nil && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() != "sync" {
			if _, isStruct := named.Underlying().(*types.Struct); isStruct {
				return named.Obj().Pkg().Path() + ".(" + named.Obj().Name() + ")"
			}
		}
		return ""
	}
	return ""
}

func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// mutexMethod resolves a call to a sync.Mutex/RWMutex method (directly or
// through an embedded field), or nil.
func mutexMethod(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	fn := astx.CalleeOf(pass.TypesInfo, call)
	if fn == nil {
		return nil
	}
	named := astx.RecvNamed(fn)
	if named == nil || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return nil
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
		return fn
	}
	return nil
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// lockKey canonicalizes the guarded mutex: the receiver expression
// rendered as source, plus R/W mode so RLock pairs with RUnlock.
func lockKey(pass *analysis.Pass, call *ast.CallExpr, fn *types.Func) string {
	mode := "w"
	if strings.HasPrefix(fn.Name(), "R") && fn.Name() != "RLocker" {
		mode = "r"
	}
	return astx.ExprString(pass.Fset, astx.RecvOf(call)) + "/" + mode
}

// isTransportCall reports whether fn is a blocking entry point of the
// transport layer (declared in hafw/internal/transport or one of its
// backends). Only the I/O surface counts: queries like Crashed or
// Connected return immediately and are safe under a mutex.
func isTransportCall(fn *types.Func) bool {
	switch fn.Name() {
	case "Send", "Broadcast", "Dial":
	default:
		return false
	}
	if fn.Pkg() == nil {
		return false
	}
	paths := []string{fn.Pkg().Path()}
	if named := astx.RecvNamed(fn); named != nil && named.Obj().Pkg() != nil {
		paths = append(paths, named.Obj().Pkg().Path())
	}
	for _, p := range paths {
		if inTransportLayer(p) {
			return true
		}
	}
	return false
}

// inTransportLayer reports whether the package path is part of the
// transport layer itself; its internals manage their own locking and are
// not judged against the "no transport calls under a mutex" rule.
func inTransportLayer(path string) bool {
	return astx.ModulePathSuffix(path, "internal/transport") ||
		astx.ModulePathSuffix(path, "internal/transport/memnet") ||
		astx.ModulePathSuffix(path, "internal/transport/tcpnet")
}

// terminates reports whether the atom unconditionally ends the path:
// panic, os.Exit, runtime.Goexit, log.Fatal*, or a testing.T method that
// stops the test goroutine (Fatal, FailNow, Skip and kin).
func terminates(pass *analysis.Pass, n ast.Node) bool {
	es, ok := n.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
			return true
		}
	}
	fn := astx.CalleeOf(pass.TypesInfo, call)
	if fn == nil {
		return false
	}
	switch {
	case astx.IsFunc(fn, "os", "Exit"),
		astx.IsFunc(fn, "runtime", "Goexit"),
		astx.IsFunc(fn, "log", "Fatal"),
		astx.IsFunc(fn, "log", "Fatalf"),
		astx.IsFunc(fn, "log", "Fatalln"):
		return true
	}
	named := astx.RecvNamed(fn)
	if named == nil || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "testing" {
		return false
	}
	switch named.Obj().Name() {
	case "T", "B", "F", "common":
	default:
		return false
	}
	switch fn.Name() {
	case "Fatal", "Fatalf", "FailNow", "Skip", "Skipf", "SkipNow":
		return true
	}
	return false
}
