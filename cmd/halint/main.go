// Command halint runs the framework's six static checkers (determinism,
// handlercheck, hotpath, leakcheck, lockorder, wirecheck; see DESIGN.md
// "Static analysis") over Go packages:
//
//	halint [-fix | -writeschema] packages...
//
// It loads the named packages together with their test files (package
// load), plus their dependencies for fact propagation, and reports each
// finding once. -fix applies the mechanical suggested fixes (missing
// defer Unlock, sort.Slice after a map range, defer ticker.Stop,
// loop-invariant buffer hoists); -writeschema regenerates
// internal/wire/schema.golden from the current tree.
//
// Exit status: 0 for no findings, 2 for findings, 1 for operational
// errors — matching `go vet`'s convention.
package main

import (
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"

	"hafw/internal/analysis"
	"hafw/internal/analysis/load"
	"hafw/internal/analyzers/determinism"
	"hafw/internal/analyzers/handlercheck"
	"hafw/internal/analyzers/hotpath"
	"hafw/internal/analyzers/leakcheck"
	"hafw/internal/analyzers/lockorder"
	"hafw/internal/analyzers/wirecheck"
)

var analyzers = []*analysis.Analyzer{
	determinism.Analyzer,
	handlercheck.Analyzer,
	hotpath.Analyzer,
	leakcheck.Analyzer,
	lockorder.Analyzer,
	wirecheck.Analyzer,
}

func main() {
	fixFlag := flag.Bool("fix", false, "apply suggested fixes")
	schemaFlag := flag.Bool("writeschema", false, "regenerate the wire schema golden file")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: halint [-fix | -writeschema] packages...\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(1)
	}
	os.Exit(run(flag.Args(), *fixFlag, *schemaFlag))
}

func run(patterns []string, fix, writeSchema bool) int {
	pkgs, fset, err := load.Load(".", patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "halint: %v\n", err)
		return 1
	}
	// Fact tables are keyed by go list ImportPath. A package compiled for
	// p's tests reads the facts of the "[p.test]" variants it imports and
	// falls back to the plain packages for the rest, as go vet would.
	factTables := make(map[string]analysis.PackageFacts)
	seen := make(map[string]bool)
	var findings []analysis.Finding
	for _, p := range pkgs {
		for _, e := range p.Errors {
			fmt.Fprintf(os.Stderr, "halint: %s: %v\n", p.List.ImportPath, e)
		}
		if len(p.Errors) > 0 {
			return 1
		}
		variant := p.List.ImportPath[len(p.Types.Path()):] // "" or " [p.test]"
		deps := func(path string) analysis.PackageFacts {
			if t, ok := factTables[path+variant]; ok {
				return t
			}
			return factTables[path]
		}
		facts, fs, err := analysis.RunAnalyzers(p.Loaded(fset), analyzers, deps)
		if err != nil {
			fmt.Fprintf(os.Stderr, "halint: %v\n", err)
			return 1
		}
		factTables[p.List.ImportPath] = facts
		if p.List.DepOnly {
			continue
		}
		// A test variant repeats the findings in its package's non-test
		// files.
		for _, f := range fs {
			key := fmt.Sprintf("%s\x00%s\x00%s", fset.Position(f.Pos), f.Analyzer, f.Message)
			if !seen[key] {
				seen[key] = true
				findings = append(findings, f)
			}
		}
	}

	if writeSchema {
		return doWriteSchema(fset, pkgs)
	}
	if fix {
		findings = applyFixes(fset, findings)
	}
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "%s: %s: %s\n", fset.Position(f.Pos), f.Analyzer, f.Message)
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}

// applyFixes writes every suggested fix to disk and returns the findings
// that had no mechanical fix.
func applyFixes(fset *token.FileSet, findings []analysis.Finding) []analysis.Finding {
	var fixable, rest []analysis.Finding
	for _, f := range findings {
		if len(f.SuggestedFixes) > 0 {
			fixable = append(fixable, f)
		} else {
			rest = append(rest, f)
		}
	}
	if len(fixable) == 0 {
		return rest
	}
	fixed, err := analysis.ApplyFixes(fset, fixable)
	if err != nil {
		fmt.Fprintf(os.Stderr, "halint: -fix: %v\n", err)
		return findings
	}
	for name, content := range fixed {
		if err := os.WriteFile(name, content, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "halint: -fix: %v\n", err)
			return findings
		}
	}
	for _, f := range fixable {
		fmt.Fprintf(os.Stderr, "%s: fixed: %s\n", fset.Position(f.Pos), f.SuggestedFixes[0].Message)
	}
	return rest
}

// doWriteSchema regenerates the wire schema golden file from every wire
// message type in the loaded packages.
func doWriteSchema(fset *token.FileSet, pkgs []*load.Package) int {
	var entries []wirecheck.SchemaEntry
	seen := make(map[string]string) // wire name → type name
	dir := ""
	for _, p := range pkgs {
		if p.List.ForTest != "" {
			continue // test files declare no production wire messages
		}
		pass := &analysis.Pass{
			Fset: fset, Files: p.Files, Pkg: p.Types, TypesInfo: p.Info,
			Report: func(analysis.Diagnostic) {},
		}
		if dir == "" {
			dir = wirecheck.SchemaDir(pass)
		}
		for _, e := range wirecheck.PackageEntries(pass) {
			if prev, dup := seen[e.WireName]; dup && prev != e.TypeName {
				fmt.Fprintf(os.Stderr, "halint: wire name %q claimed by both %s and %s\n", e.WireName, prev, e.TypeName)
				return 1
			}
			seen[e.WireName] = e.TypeName
			entries = append(entries, e)
		}
	}
	if dir == "" {
		fmt.Fprintln(os.Stderr, "halint: -writeschema: no package in the load graph imports the wire package")
		return 1
	}
	path := filepath.Join(dir, wirecheck.SchemaFile)
	if err := os.WriteFile(path, wirecheck.FormatSchema(entries), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "halint: %v\n", err)
		return 1
	}
	fmt.Printf("halint: wrote %s (%d messages)\n", path, len(entries))
	return 0
}
