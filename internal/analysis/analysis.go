// Package analysis is a self-contained, dependency-free re-implementation
// of the golang.org/x/tools/go/analysis API surface that this repository's
// static checkers need. The framework's determinism, locking, and wire
// invariants (DESIGN.md "Static analysis") are machine-checked by passes
// built on this package and driven by cmd/halint.
//
// The subset implemented here is deliberately small: analyzers, passes,
// diagnostics with suggested fixes, and object facts (the mechanism that
// makes the determinism pass interprocedural across package boundaries).
// It exists because the build environment bakes in only the Go toolchain;
// pulling golang.org/x/tools is not an option, and the invariants matter
// more than the vendor.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer; it is used in diagnostics, in
	// `//nolint:hafw/<name>` suppression comments, and as the fact-table
	// key.
	Name string
	// Doc is the one-paragraph description shown by `halint -help`.
	Doc string
	// Run executes the analyzer on one package.
	Run func(*Pass) error
	// FactTypes lists the fact prototypes the analyzer exports; each must
	// be a pointer to a gob-encodable struct. Registering a fact type
	// makes the analyzer's results visible to later packages that import
	// the analyzed one.
	FactTypes []Fact
}

// Fact is an observation about a program object that survives across
// package boundaries. Implementations must be pointers to gob-encodable
// structs.
type Fact interface {
	AFact()
}

// TextEdit replaces the source in [Pos, End) with NewText.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText []byte
}

// SuggestedFix is one mechanical rewrite that resolves a diagnostic;
// `halint -fix` applies them.
type SuggestedFix struct {
	Message   string
	TextEdits []TextEdit
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos            token.Pos
	End            token.Pos
	Message        string
	SuggestedFixes []SuggestedFix
}

// Pass carries one analyzer's view of one package. The driver populates
// every field; analyzers must treat them as read-only.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic to the driver (which applies nolint
	// suppression before surfacing it).
	Report func(Diagnostic)

	// ImportObjectFact copies the fact of the given type previously
	// exported for obj (by this analyzer, possibly while analyzing a
	// dependency package) into fact, reporting whether one existed.
	ImportObjectFact func(obj types.Object, fact Fact) bool
	// ExportObjectFact records a fact for obj, visible to this analyzer
	// when it later runs on packages that import this one. obj must
	// belong to the package under analysis and be addressable by
	// ObjectKey.
	ExportObjectFact func(obj types.Object, fact Fact)
	// ImportPackageFact copies the whole-package fact previously exported
	// by this analyzer for pkg (the package under analysis or one of its
	// dependencies) into fact, reporting whether one existed. Package
	// facts are how analyzers accumulate program-wide structures — the
	// lockorder pass folds each dependency's lock-acquisition graph into
	// its own this way.
	ImportPackageFact func(pkg *types.Package, fact Fact) bool
	// ExportPackageFact records a fact for the package under analysis,
	// visible to this analyzer when it later runs on importing packages.
	ExportPackageFact func(fact Fact)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// PackageFactKey is the reserved fact-table key under which a package's
// whole-package fact is stored. The NUL prefix keeps it outside the
// ObjectKey namespace (Go identifiers cannot contain NUL).
const PackageFactKey = "\x00package"

// ObjectKey returns a stable, per-package identifier for a fact-bearing
// object, or "" if the object cannot carry facts. Package-level functions
// and variables map to their name; methods map to "(RecvType).Name". The
// key space mirrors what the analyzers need (functions, mostly) rather
// than the full generality of x/tools' objectpath.
func ObjectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		sig, ok := fn.Type().(*types.Signature)
		if ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return ""
			}
			return "(" + named.Obj().Name() + ")." + fn.Name()
		}
		if fn.Parent() == fn.Pkg().Scope() {
			return fn.Name()
		}
		return "" // local closure object: not addressable
	}
	if obj.Parent() == obj.Pkg().Scope() {
		return obj.Name()
	}
	return ""
}
