// Package flow is a small abstract interpreter over Go statement syntax,
// shared by the lockorder analyzer (held mutexes) and the leakcheck
// analyzer (spans, timers and tickers still to be released). It walks a
// function body in execution order, threading a resource-tracking state
// through branches, and reports the state at every return point
// (explicit returns and falling off the end).
//
// The interpretation is deliberately conservative and loop-free: loop
// bodies are visited once, `break`/`continue`/`goto` end the current path
// without judgement, and branch merges downgrade a resource held on only
// some incoming paths from "definitely held" to "maybe held". Analyzers
// report must-style findings (a lock not released on every return path)
// from Definitely entries and may-style findings (a channel send while a
// lock may be held) from any entry, which keeps both finding classes
// low-noise.
package flow

import "go/ast"

// Level grades how certainly a resource is held on the current path.
type Level int

const (
	// Maybe means the resource is held on at least one path reaching
	// here.
	Maybe Level = iota + 1
	// Definitely means the resource is held on every path reaching here.
	Definitely
)

// Hold is the tracked condition of one resource.
type Hold struct {
	Level Level
	// Deferred records that release was scheduled with `defer`: the
	// resource is still held for may-style queries, but every exit path
	// is covered.
	Deferred bool
	// Data is analyzer-defined (e.g. the acquisition position).
	Data any
}

// State maps resource keys to their hold condition on the current path.
type State map[string]Hold

// Clone copies the state.
func (st State) Clone() State {
	out := make(State, len(st))
	for k, v := range st {
		out[k] = v
	}
	return out
}

// merge combines the states of two joining paths.
func merge(a, b State) State {
	out := make(State)
	for k, av := range a {
		if bv, ok := b[k]; ok {
			lv := av.Level
			if bv.Level < lv {
				lv = bv.Level
			}
			out[k] = Hold{Level: lv, Deferred: av.Deferred || bv.Deferred, Data: av.Data}
		} else {
			out[k] = Hold{Level: Maybe, Deferred: av.Deferred, Data: av.Data}
		}
	}
	for k, bv := range b {
		if _, ok := a[k]; !ok {
			out[k] = Hold{Level: Maybe, Deferred: bv.Deferred, Data: bv.Data}
		}
	}
	return out
}

// Hooks parameterize a walk.
type Hooks struct {
	// OnAtom is called, in execution order, for each atomic statement or
	// controlling expression (assignments, calls, sends, defers, `go`
	// statements, if/for/switch conditions, and select statements as a
	// whole). The hook may mutate the state to acquire or release
	// resources. Compound statements' bodies are walked by the driver;
	// OnAtom must not descend into nested blocks itself.
	OnAtom func(n ast.Node, st State)
	// OnComm, if set, is called at the start of each select clause with
	// the clause's communication (nil for default), after OnAtom has seen
	// the whole select: what one case receives counts on its branch only.
	OnComm func(comm ast.Stmt, st State)
	// OnIterEnd, if set, is called with the state at the end of each loop
	// body that falls through, before the next iteration could run.
	OnIterEnd func(loop ast.Stmt, st State)
	// OnExit is called at every function exit: each return statement and,
	// if the end of the body is reachable, the closing brace. n is the
	// *ast.ReturnStmt or the function's *ast.BlockStmt.
	OnExit func(n ast.Node, st State)
	// Terminates reports whether an atomic statement ends the path
	// (panic, os.Exit, t.Fatal, ...). Consulted after OnAtom.
	Terminates func(n ast.Node) bool
}

// Walk interprets body under the hooks.
func Walk(body *ast.BlockStmt, h Hooks) {
	if body == nil {
		return
	}
	w := walker{h: h}
	st, cont := w.stmts(body.List, make(State))
	if cont {
		h.OnExit(body, st)
	}
}

type walker struct{ h Hooks }

func (w walker) atom(n ast.Node, st State) bool {
	if n == nil {
		return true
	}
	w.h.OnAtom(n, st)
	if w.h.Terminates != nil && w.h.Terminates(n) {
		return false
	}
	return true
}

// stmts interprets a statement list. It returns the state after the list
// and whether execution can continue past it.
func (w walker) stmts(list []ast.Stmt, st State) (State, bool) {
	for _, s := range list {
		var cont bool
		st, cont = w.stmt(s, st)
		if !cont {
			return st, false
		}
	}
	return st, true
}

func (w walker) stmt(s ast.Stmt, st State) (State, bool) {
	switch s := s.(type) {
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)

	case *ast.BlockStmt:
		return w.stmts(s.List, st)

	case *ast.ReturnStmt:
		if !w.atom(s, st) {
			return st, false
		}
		w.h.OnExit(s, st)
		return st, false

	case *ast.BranchStmt:
		// break/continue/goto leave the current block; treat as path end
		// without an exit event (conservative).
		return st, false

	case *ast.IfStmt:
		if s.Init != nil {
			var cont bool
			st, cont = w.stmt(s.Init, st)
			if !cont {
				return st, false
			}
		}
		if !w.atom(s.Cond, st) {
			return st, false
		}
		thenSt, thenCont := w.stmts(s.Body.List, st.Clone())
		elseSt, elseCont := st.Clone(), true
		if s.Else != nil {
			elseSt, elseCont = w.stmt(s.Else, st.Clone())
		}
		switch {
		case thenCont && elseCont:
			return merge(thenSt, elseSt), true
		case thenCont:
			return thenSt, true
		case elseCont:
			return elseSt, true
		default:
			return st, false
		}

	case *ast.ForStmt:
		if s.Init != nil {
			var cont bool
			st, cont = w.stmt(s.Init, st)
			if !cont {
				return st, false
			}
		}
		if s.Cond != nil && !w.atom(s.Cond, st) {
			return st, false
		}
		bodySt, bodyCont := w.stmts(s.Body.List, st.Clone())
		if s.Post != nil && bodyCont {
			bodySt, _ = w.stmt(s.Post, bodySt)
		}
		if bodyCont {
			w.iterEnd(s, bodySt)
			return merge(st, bodySt), true
		}
		// The body never falls through; the loop is left via break or the
		// condition before the first iteration.
		return st, true

	case *ast.RangeStmt:
		if !w.atom(s.X, st) {
			return st, false
		}
		bodySt, bodyCont := w.stmts(s.Body.List, st.Clone())
		if bodyCont {
			w.iterEnd(s, bodySt)
			return merge(st, bodySt), true
		}
		return st, true

	case *ast.SwitchStmt:
		if s.Init != nil {
			var cont bool
			st, cont = w.stmt(s.Init, st)
			if !cont {
				return st, false
			}
		}
		if s.Tag != nil && !w.atom(s.Tag, st) {
			return st, false
		}
		return w.clauses(clauseBodies(s.Body), nil, hasDefaultClause(s.Body), st)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			var cont bool
			st, cont = w.stmt(s.Init, st)
			if !cont {
				return st, false
			}
		}
		if !w.atom(s.Assign, st) {
			return st, false
		}
		return w.clauses(clauseBodies(s.Body), nil, hasDefaultClause(s.Body), st)

	case *ast.SelectStmt:
		// The select itself is the blocking channel operation; analyzers
		// see it whole and must not re-count the comm clauses.
		if !w.atom(s, st) {
			return st, false
		}
		var bodies [][]ast.Stmt
		var comms []ast.Stmt
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				// The comm statement itself is part of the select OnAtom
				// already saw; it reaches OnComm, not OnAtom, again.
				bodies = append(bodies, cc.Body)
				comms = append(comms, cc.Comm)
			}
		}
		// A select without default blocks until some case runs: at least
		// one branch is taken, so no fall-past-all-clauses path exists.
		return w.clauses(bodies, comms, true, st)

	default:
		// Atomic statements: ExprStmt, AssignStmt, SendStmt, IncDecStmt,
		// DeclStmt, DeferStmt, GoStmt, EmptyStmt.
		return st, w.atom(s, st)
	}
}

func (w walker) iterEnd(loop ast.Stmt, st State) {
	if w.h.OnIterEnd != nil {
		w.h.OnIterEnd(loop, st)
	}
}

// clauses interprets the bodies of switch/select clauses, merging the
// continuing branches; comms, for a select, holds each clause's
// communication. If the statement has no default clause, the entry
// state also continues (no clause may match).
func (w walker) clauses(bodies [][]ast.Stmt, comms []ast.Stmt, hasDefault bool, st State) (State, bool) {
	var mergedSt State
	cont := false
	for i, body := range bodies {
		bSt := st.Clone()
		if comms != nil && w.h.OnComm != nil {
			w.h.OnComm(comms[i], bSt)
		}
		bSt, bCont := w.stmts(body, bSt)
		if !bCont {
			continue
		}
		if !cont {
			mergedSt, cont = bSt, true
		} else {
			mergedSt = merge(mergedSt, bSt)
		}
	}
	if !hasDefault {
		if !cont {
			return st, true
		}
		return merge(mergedSt, st), true
	}
	if !cont {
		return st, false
	}
	return mergedSt, true
}

func clauseBodies(body *ast.BlockStmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			out = append(out, cc.Body)
		}
	}
	return out
}

func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}
