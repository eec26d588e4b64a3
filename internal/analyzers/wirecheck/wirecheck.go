// Package wirecheck implements the halint pass that guards the wire
// protocol. Every concrete type that travels through the transports (it
// implements wire.Message by declaring a WireName method) must be
// registered with wire.Register so the codec can decode it, must expose
// only exported fields (the codec silently drops unexported ones — state
// that "arrives" empty after a failover is the worst kind of bug), and must
// evolve append-only against the checked-in golden schema
// (internal/wire/schema.golden), because mixed-version process groups
// exchange these messages during rolling restarts.
//
// The golden schema lives next to the wire package's source; the pass
// locates it through the imported package's object positions, so
// analysistest trees carry their own stub wire package and golden file.
package wirecheck

import (
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"hafw/internal/analysis"
	"hafw/internal/analyzers/astx"
)

// SchemaFile is the golden schema's file name, resolved relative to the
// wire package's source directory.
const SchemaFile = "schema.golden"

// Analyzer is the wirecheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "wirecheck",
	Doc:  "checks that wire.Message types are registered, contain only exported fields, and evolve append-only against the golden wire schema",
	Run:  run,
}

// SchemaEntry describes one wire message type.
type SchemaEntry struct {
	WireName string
	TypeName string   // package-path-qualified
	Fields   []string // "Name:type", in declaration order; nil for non-structs
	// TestOnly marks types declared in _test.go files; they are checked
	// for registration and exported fields but excluded from the golden
	// schema (they never cross version boundaries).
	TestOnly bool
	pos      ast.Node
}

func run(pass *analysis.Pass) error {
	entries := PackageEntries(pass)
	if len(entries) == 0 {
		return nil
	}

	registered := registeredTypes(pass)
	for _, e := range entries {
		if !registered[e.TypeName] {
			pass.Reportf(e.pos.Pos(),
				"wire message %s (%q) is not registered; add wire.Register(%s{}) to an init function",
				shortName(e.TypeName), e.WireName, shortName(e.TypeName))
		}
	}

	schema, schemaDir, err := loadSchema(pass)
	if err != nil {
		pass.Reportf(pass.Files[0].Pos(), "%v", err)
		return nil
	}
	if schema == nil {
		return nil // package has no path to the wire package's sources
	}
	for _, e := range entries {
		if e.TestOnly {
			continue
		}
		golden, ok := schema[e.WireName]
		if !ok {
			pass.Reportf(e.pos.Pos(),
				"wire message %q is missing from %s; run `go run ./cmd/halint -writeschema ./...` and commit the schema",
				e.WireName, filepath.Join(schemaDir, SchemaFile))
			continue
		}
		if !isPrefix(golden, e.Fields) {
			pass.Reportf(e.pos.Pos(),
				"wire message %q changes its recorded schema non-append-only (recorded: %s; now: %s); only appending new fields is compatible with mixed-version groups",
				e.WireName, strings.Join(golden, " "), strings.Join(e.Fields, " "))
		}
	}
	return nil
}

// PackageEntries collects the wire message types declared in the package
// under analysis, with their field schemas. Exported-field violations are
// reported as a side effect. The driver's -writeschema mode reuses this
// to regenerate the golden file.
func PackageEntries(pass *analysis.Pass) []SchemaEntry {
	var entries []SchemaEntry
	qual := func(p *types.Package) string { return p.Path() }

	for _, file := range pass.Files {
		testOnly := strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go")
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				obj, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				wireName, ok := wireNameOf(pass, named)
				if !ok {
					continue
				}
				e := SchemaEntry{
					WireName: wireName,
					TypeName: obj.Pkg().Path() + "." + obj.Name(),
					TestOnly: testOnly,
					pos:      ts,
				}
				if st, ok := named.Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						f := st.Field(i)
						if !f.Exported() {
							pass.Reportf(f.Pos(),
								"wire message %s has unexported field %s; the wire codec drops it silently, so replicas would diverge after transfer",
								obj.Name(), f.Name())
							continue
						}
						e.Fields = append(e.Fields, f.Name()+":"+types.TypeString(f.Type(), qual))
					}
				}
				entries = append(entries, e)
			}
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].WireName < entries[j].WireName })
	return entries
}

// wireNameOf reports the WireName of a named type that implements
// wire.Message, extracting the literal the method returns when it is a
// single `return "literal"`, and falling back to the type name.
func wireNameOf(pass *analysis.Pass, named *types.Named) (string, bool) {
	var method *types.Func
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == "WireName" {
			method = named.Method(i)
			break
		}
	}
	if method == nil {
		return "", false
	}
	sig, ok := method.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return "", false
	}
	if basic, ok := sig.Results().At(0).Type().Underlying().(*types.Basic); !ok || basic.Kind() != types.String {
		return "", false
	}
	// Find the method's declaration in this package to read the literal.
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "WireName" || fd.Body == nil || len(fd.Body.List) != 1 {
				continue
			}
			if pass.TypesInfo.Defs[fd.Name] != method {
				continue
			}
			ret, ok := fd.Body.List[0].(*ast.ReturnStmt)
			if !ok || len(ret.Results) != 1 {
				continue
			}
			if tv, ok := pass.TypesInfo.Types[ret.Results[0]]; ok && tv.Value != nil {
				return strings.Trim(tv.Value.String(), `"`), true
			}
		}
	}
	return named.Obj().Name(), true
}

// registeredTypes returns the package-path-qualified names of concrete
// types passed to wire.Register anywhere in the package.
func registeredTypes(pass *analysis.Pass) map[string]bool {
	out := make(map[string]bool)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			fn := astx.CalleeOf(pass.TypesInfo, call)
			if fn == nil || fn.Name() != "Register" || fn.Pkg() == nil ||
				!astx.ModulePathSuffix(fn.Pkg().Path(), "internal/wire") {
				return true
			}
			t := pass.TypesInfo.Types[call.Args[0]].Type
			if t == nil {
				return true
			}
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
				out[named.Obj().Pkg().Path()+"."+named.Obj().Name()] = true
			}
			return true
		})
	}
	return out
}

// loadSchema reads the golden schema sitting next to the wire package's
// sources. Returns (nil, "", nil) when the analyzed package has no
// relationship to a wire package (nothing to check against).
func loadSchema(pass *analysis.Pass) (map[string][]string, string, error) {
	dir := wirePackageDir(pass)
	if dir == "" {
		return nil, "", nil
	}
	path := filepath.Join(dir, SchemaFile)
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, "", fmt.Errorf("wire schema %s does not exist; run `go run ./cmd/halint -writeschema ./...`", path)
		}
		return nil, "", err
	}
	schema := make(map[string][]string)
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Fields(line)
		if len(parts) < 2 {
			continue
		}
		schema[parts[0]] = parts[2:] // parts[1] is the type name
	}
	return schema, dir, nil
}

// wirePackageDir locates the source directory of the wire package: the
// analyzed package itself if it is the wire package, otherwise the
// directory of the imported wire package's Register declaration (object
// positions survive export-data import).
func wirePackageDir(pass *analysis.Pass) string {
	if astx.ModulePathSuffix(pass.Pkg.Path(), "internal/wire") {
		return filepath.Dir(pass.Fset.Position(pass.Files[0].Pos()).Filename)
	}
	for _, imp := range pass.Pkg.Imports() {
		if !astx.ModulePathSuffix(imp.Path(), "internal/wire") {
			continue
		}
		obj := imp.Scope().Lookup("Register")
		if obj == nil {
			continue
		}
		p := pass.Fset.Position(obj.Pos())
		if p.Filename == "" {
			continue
		}
		return filepath.Dir(p.Filename)
	}
	return ""
}

// SchemaDir exposes the golden schema directory to the driver's
// -writeschema mode.
func SchemaDir(pass *analysis.Pass) string { return wirePackageDir(pass) }

// FormatSchema renders schema entries in the golden file format: one
// `wirename typename field...` line per message, sorted by wire name.
func FormatSchema(entries []SchemaEntry) []byte {
	var b strings.Builder
	b.WriteString("# Wire message schema — append-only; mixed-version groups decode by this contract.\n")
	b.WriteString("# Regenerate with: go run ./cmd/halint -writeschema ./...\n")
	sorted := append([]SchemaEntry(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].WireName < sorted[j].WireName })
	for _, e := range sorted {
		line := e.WireName + " " + e.TypeName
		if len(e.Fields) > 0 {
			line += " " + strings.Join(e.Fields, " ")
		}
		b.WriteString(line + "\n")
	}
	return []byte(b.String())
}

func isPrefix(golden, current []string) bool {
	if len(golden) > len(current) {
		return false
	}
	for i := range golden {
		if golden[i] != current[i] {
			return false
		}
	}
	return true
}

func shortName(qualified string) string {
	if i := strings.LastIndex(qualified, "."); i >= 0 {
		return qualified[i+1:]
	}
	return qualified
}
