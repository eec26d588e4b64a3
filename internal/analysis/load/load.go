// Package load turns `go list` package patterns into type-checked syntax
// trees for analysis. Packages of the current module are parsed and
// type-checked from source (analyzers need their ASTs); everything else —
// the standard library, chiefly — is imported from compiler export data
// that `go list -export` materializes in the build cache. Test files are
// loaded the way the go command compiles them: each requested package
// also yields its test variant and its external _test package. This
// mirrors what golang.org/x/tools/go/packages does, without the
// dependency.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"hafw/internal/analysis"
)

// ListModule is the module stanza of `go list -json` output.
type ListModule struct {
	Path      string
	Dir       string
	GoVersion string
}

// ListError is the error stanza of `go list -e -json` output.
type ListError struct {
	Pos string
	Err string
}

// ListPackage is the subset of `go list -json` output the loader needs.
type ListPackage struct {
	Dir        string
	ImportPath string
	Name       string
	Standard   bool
	Export     string
	Goroot     bool
	GoFiles    []string
	CgoFiles   []string
	Imports    []string
	Deps       []string
	Module     *ListModule
	Error      *ListError
	// ForTest names the package whose tests this variant is compiled
	// for; ImportPath then carries the suffix " [ForTest.test]".
	ForTest string
	// ImportMap maps an import path in the source to the variant the
	// package is compiled against.
	ImportMap map[string]string
	// DepOnly reports a package that is not a root of the requested
	// patterns (nor a test package of one).
	DepOnly bool
}

// GoList runs `go list -e -json <args>` in dir and decodes the package
// stream.
func GoList(dir string, args ...string) ([]*ListPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-json"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []*ListPackage
	for {
		lp := new(ListPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decode: %w", err)
		}
		pkgs = append(pkgs, lp)
	}
	return pkgs, nil
}

// Package is one source-loaded, type-checked package.
type Package struct {
	List  *ListPackage
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Errors holds type-check errors (the package is still returned with
	// whatever was resolved).
	Errors []error
}

// Loaded returns the package in the shape the checker consumes.
func (p *Package) Loaded(fset *token.FileSet) *analysis.LoadedPackage {
	return &analysis.LoadedPackage{Fset: fset, Files: p.Files, Pkg: p.Types, Info: p.Info}
}

// Importer resolves imports for source-checked packages: module packages
// come from the in-memory table (preserving object identity, which facts
// rely on), everything else from export data files.
type Importer struct {
	fset    *token.FileSet
	exports map[string]string // import path → export data file
	loaded  map[string]*types.Package
	gc      types.Importer
}

// NewImporter builds an importer over the given export-file table.
func NewImporter(fset *token.FileSet, exports map[string]string) *Importer {
	imp := &Importer{fset: fset, exports: exports, loaded: make(map[string]*types.Package)}
	imp.gc = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok || f == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	return imp
}

// Provide registers a source-checked package for subsequent imports.
func (imp *Importer) Provide(path string, pkg *types.Package) { imp.loaded[path] = pkg }

// Import implements types.Importer.
func (imp *Importer) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := imp.loaded[path]; ok {
		return p, nil
	}
	return imp.gc.Import(path)
}

// mapped resolves one package's imports through its ImportMap, so a test
// package sees the variants the go command compiles it against.
type mapped struct {
	*Importer
	importMap map[string]string
}

func (m mapped) Import(path string) (*types.Package, error) {
	if v, ok := m.importMap[path]; ok {
		path = v
	}
	return m.Importer.Import(path)
}

// NewTypesInfo allocates a fully populated types.Info.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// CheckFiles parses and type-checks one package's files.
func CheckFiles(fset *token.FileSet, path string, fileNames []string, imp types.Importer, goVersion string) (*Package, error) {
	var files []*ast.File
	for _, name := range fileNames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", name, err)
		}
		files = append(files, f)
	}
	pkg := &Package{Info: NewTypesInfo()}
	conf := types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor("gc", runtime.GOARCH),
		GoVersion: goVersion,
		Error:     func(err error) { pkg.Errors = append(pkg.Errors, err) },
	}
	tpkg, err := conf.Check(path, fset, files, pkg.Info)
	if err != nil && len(pkg.Errors) == 0 {
		pkg.Errors = append(pkg.Errors, err)
	}
	pkg.Files = files
	pkg.Types = tpkg
	return pkg, nil
}

// Load lists patterns with their tests (plus the dependency closure, with
// export data) and source-checks every package belonging to the current
// module, in dependency order. A requested package p with test files also
// yields its test variant "p [p.test]" (GoFiles plus TestGoFiles), its
// external "p_test [p.test]" package, and every package between the two
// that the go command recompiles against the test variant. A Package's
// types.Package path is the plain import path; ListPackage.ImportPath
// keeps the variant suffix. The generated test mains are skipped.
func Load(dir string, patterns []string) ([]*Package, *token.FileSet, error) {
	all, err := GoList(dir, append([]string{"-deps", "-export", "-test"}, patterns...)...)
	if err != nil {
		return nil, nil, err
	}

	fset := token.NewFileSet()
	exports := make(map[string]string)
	for _, lp := range all {
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
	}
	imp := NewImporter(fset, exports)

	var out []*Package
	for _, lp := range all { // -deps order: dependencies first
		if lp.Standard || lp.Module == nil || strings.HasSuffix(lp.ImportPath, ".test") {
			continue
		}
		if lp.Error != nil {
			return nil, nil, fmt.Errorf("go list: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if len(lp.CgoFiles) > 0 {
			return nil, nil, fmt.Errorf("%s: cgo packages are not supported by the loader", lp.ImportPath)
		}
		var names []string
		for _, f := range lp.GoFiles {
			names = append(names, filepath.Join(lp.Dir, f))
		}
		goVersion := ""
		if lp.Module.GoVersion != "" {
			goVersion = "go" + lp.Module.GoVersion
		}
		path, _, _ := strings.Cut(lp.ImportPath, " ")
		pkg, err := CheckFiles(fset, path, names, mapped{imp, lp.ImportMap}, goVersion)
		if err != nil {
			return nil, nil, err
		}
		pkg.List = lp
		imp.Provide(lp.ImportPath, pkg.Types)
		out = append(out, pkg)
	}
	return out, fset, nil
}
