// Command halint runs the framework's six static checkers (determinism,
// handlercheck, hotpath, leakcheck, lockorder, wirecheck; see DESIGN.md
// "Static analysis") over Go packages. It supports two modes:
//
//   - Standalone: `halint [-fix] [-writeschema] ./...` loads the named
//     packages (plus dependencies, for fact propagation) and reports
//     diagnostics. -fix applies the mechanical suggested fixes (missing
//     defer Unlock, sort.Slice after a map range, defer ticker.Stop,
//     loop-invariant buffer hoists); -writeschema regenerates
//     internal/wire/schema.golden from the current tree.
//
//   - Unit checker: when invoked by `go vet -vettool=$(pwd)/halint`, the
//     go command drives halint once per package with a JSON config file;
//     facts flow between those processes through .vetx files. This mode
//     also covers _test.go files, which the standalone loader skips.
//
// Baseline: `-baseline halint.baseline` (or the HALINT_BASELINE
// environment variable, which also reaches the unit-checker subprocesses
// `go vet` spawns) suppresses the findings recorded in the baseline file
// so only new findings fail; `-writebaseline halint.baseline`
// grandfathers the current findings. Baseline keys are
// file-relative-to-the-baseline plus analyzer plus message — no line
// numbers, so unrelated edits don't invalidate them.
//
// Exit status: 0 for no findings, 2 for findings, 1 for operational
// errors — matching `go vet`'s convention.
package main

import (
	"crypto/sha256"
	"encoding/gob"
	"encoding/json"
	"flag"
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

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
	versionFlag := flag.String("V", "", "print version and exit (go vet tool-ID protocol)")
	flagsFlag := flag.Bool("flags", false, "print analyzer flags as JSON and exit (go vet protocol)")
	fixFlag := flag.Bool("fix", false, "apply suggested fixes (standalone mode)")
	schemaFlag := flag.Bool("writeschema", false, "regenerate the wire schema golden file (standalone mode)")
	baselineFlag := flag.String("baseline", os.Getenv("HALINT_BASELINE"), "suppress findings recorded in this baseline file; only new findings fail")
	writeBaselineFlag := flag.String("writebaseline", "", "record the current findings in this baseline file and exit 0 (standalone mode)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: halint [-fix | -writeschema] packages...\n")
		fmt.Fprintf(flag.CommandLine.Output(), "   or: go vet -vettool=/path/to/halint packages...\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	if *versionFlag != "" {
		printVersion()
		return
	}
	if *flagsFlag {
		fmt.Println("[]")
		return
	}
	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(unitCheck(args[0], *baselineFlag))
	}
	if len(args) == 0 {
		flag.Usage()
		os.Exit(1)
	}
	os.Exit(standalone(args, *fixFlag, *schemaFlag, *baselineFlag, *writeBaselineFlag))
}

// printVersion implements the `-V=full` handshake the go command uses to
// build cache keys: the output must identify this exact tool build, so it
// includes a hash of the executable.
func printVersion() {
	name := filepath.Base(os.Args[0])
	id := "unknown"
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				id = fmt.Sprintf("%x", h.Sum(nil))
			}
			f.Close()
		}
	}
	fmt.Printf("%s version devel buildID=%s\n", name, id)
}

// ---- standalone mode ----

func standalone(patterns []string, fix, writeSchema bool, baseline, writeBaseline string) int {
	pkgs, fset, err := load.Load(".", patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "halint: %v\n", err)
		return 1
	}
	factTables := make(map[string]analysis.PackageFacts)
	deps := func(path string) analysis.PackageFacts { return factTables[path] }

	var findings []analysis.Finding
	for _, p := range pkgs {
		for _, e := range p.Errors {
			fmt.Fprintf(os.Stderr, "halint: %s: %v\n", p.List.ImportPath, e)
		}
		if len(p.Errors) > 0 {
			return 1
		}
		facts, fs, err := analysis.RunAnalyzers(p.Loaded(fset), analyzers, deps)
		if err != nil {
			fmt.Fprintf(os.Stderr, "halint: %v\n", err)
			return 1
		}
		factTables[p.List.ImportPath] = facts
		if !p.List.DepsOnly {
			findings = append(findings, fs...)
		}
	}

	if writeSchema {
		return doWriteSchema(fset, pkgs)
	}
	if fix {
		findings = applyFixes(fset, findings)
	}
	if writeBaseline != "" {
		return doWriteBaseline(fset, findings, writeBaseline)
	}
	if baseline != "" {
		var err error
		findings, err = filterBaseline(fset, findings, baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "halint: %v\n", err)
			return 1
		}
	}
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "%s: %s: %s\n", fset.Position(f.Pos), f.Analyzer, f.Message)
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}

// ---- baseline mode ----

// baselineKey renders one finding as its baseline line: the file path
// relative to the baseline's directory, the analyzer, and the message.
// Line numbers are deliberately absent so unrelated edits to a file do
// not invalidate its grandfathered findings.
func baselineKey(fset *token.FileSet, baseDir string, f analysis.Finding) string {
	file := fset.Position(f.Pos).Filename
	if rel, err := filepath.Rel(baseDir, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	return file + ": " + f.Analyzer + ": " + f.Message
}

// loadBaseline reads the grandfathered finding keys. A missing file is an
// empty baseline, so bootstrapping does not require a dummy file.
func loadBaseline(path string) (map[string]bool, string, error) {
	abs, err := filepath.Abs(path)
	if err != nil {
		return nil, "", err
	}
	baseDir := filepath.Dir(abs)
	keys := make(map[string]bool)
	data, err := os.ReadFile(abs)
	if err != nil {
		if os.IsNotExist(err) {
			return keys, baseDir, nil
		}
		return nil, "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		keys[line] = true
	}
	return keys, baseDir, nil
}

// filterBaseline drops findings whose keys are grandfathered.
func filterBaseline(fset *token.FileSet, findings []analysis.Finding, path string) ([]analysis.Finding, error) {
	keys, baseDir, err := loadBaseline(path)
	if err != nil {
		return nil, err
	}
	var kept []analysis.Finding
	for _, f := range findings {
		if !keys[baselineKey(fset, baseDir, f)] {
			kept = append(kept, f)
		}
	}
	return kept, nil
}

// doWriteBaseline grandfathers the current findings: every key is
// written once, sorted, under a header explaining the contract.
func doWriteBaseline(fset *token.FileSet, findings []analysis.Finding, path string) int {
	abs, err := filepath.Abs(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "halint: %v\n", err)
		return 1
	}
	baseDir := filepath.Dir(abs)
	seen := make(map[string]bool)
	var keys []string
	for _, f := range findings {
		k := baselineKey(fset, baseDir, f)
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("# halint baseline — grandfathered findings; new findings still fail.\n")
	b.WriteString("# Shrink this file by fixing findings; regenerate with: go run ./cmd/halint -writebaseline halint.baseline ./...\n")
	for _, k := range keys {
		b.WriteString(k + "\n")
	}
	if err := os.WriteFile(abs, []byte(b.String()), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "halint: %v\n", err)
		return 1
	}
	fmt.Printf("halint: wrote %s (%d findings)\n", path, len(keys))
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

// ---- unit checker mode (go vet -vettool) ----

// vetConfig is the JSON configuration the go command writes for each
// package unit (see golang.org/x/tools/go/analysis/unitchecker).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func unitCheck(cfgPath, baseline string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "halint: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "halint: parsing %s: %v\n", cfgPath, err)
		return 1
	}

	fset := token.NewFileSet()
	compilerImp := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compilerImp.Import(path)
	})

	pkg, err := load.CheckFiles(fset, cfg.ImportPath, cfg.GoFiles, imp, cfg.GoVersion)
	if err != nil || len(pkg.Errors) > 0 {
		if cfg.SucceedOnTypecheckFailure {
			return writeVetx(cfg.VetxOutput, make(analysis.PackageFacts))
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "halint: %s: %v\n", cfg.ImportPath, err)
		}
		for _, e := range pkg.Errors {
			fmt.Fprintf(os.Stderr, "%v\n", e)
		}
		return 1
	}

	depFacts := make(map[string]analysis.PackageFacts)
	deps := func(path string) analysis.PackageFacts {
		if t, ok := depFacts[path]; ok {
			return t
		}
		vetx, ok := cfg.PackageVetx[path]
		if !ok {
			if mapped, inMap := cfg.ImportMap[path]; inMap {
				vetx, ok = cfg.PackageVetx[mapped]
			}
		}
		table := make(analysis.PackageFacts)
		if ok {
			if f, err := os.Open(vetx); err == nil {
				_ = gob.NewDecoder(f).Decode(&table)
				f.Close()
			}
		}
		depFacts[path] = table
		return table
	}

	facts, findings, err := analysis.RunAnalyzers(pkg.Loaded(fset), analyzers, deps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "halint: %v\n", err)
		return 1
	}
	if code := writeVetx(cfg.VetxOutput, facts); code != 0 {
		return code
	}
	if cfg.VetxOnly {
		return 0
	}
	if baseline != "" {
		findings, err = filterBaseline(fset, findings, baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "halint: %v\n", err)
			return 1
		}
	}
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "%s: %s: %s\n", fset.Position(f.Pos), f.Analyzer, f.Message)
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}

// writeVetx persists the package's fact table; the go command hands the
// file to dependent packages' runs via PackageVetx.
func writeVetx(path string, facts analysis.PackageFacts) int {
	if path == "" {
		return 0
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "halint: %v\n", err)
		return 1
	}
	defer f.Close()
	if err := gob.NewEncoder(f).Encode(facts); err != nil {
		fmt.Fprintf(os.Stderr, "halint: %v\n", err)
		return 1
	}
	return 0
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
