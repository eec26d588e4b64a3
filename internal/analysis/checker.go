package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// LoadedPackage bundles the typed syntax of one package, however it was
// produced (package load or analysistest).
type LoadedPackage struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Finding is one diagnostic attributed to the analyzer that raised it.
type Finding struct {
	Analyzer string
	Diagnostic
}

// Position resolves the finding's position against fset.
func (f Finding) Position(fset *token.FileSet) token.Position {
	return fset.Position(f.Pos)
}

// RunAnalyzers executes the analyzers over one package, in order. Facts
// exported while analyzing this package land in the returned PackageFacts;
// facts of dependency packages are resolved through deps (which may be
// nil). Findings suppressed by a justified `//nolint:hafw/<analyzer>`
// comment are dropped; unjustified nolint directives become findings of
// the pseudo-analyzer "nolint".
func RunAnalyzers(lp *LoadedPackage, analyzers []*Analyzer, deps func(pkgPath string) PackageFacts) (PackageFacts, []Finding, error) {
	facts := make(PackageFacts)
	var findings []Finding
	for _, a := range analyzers {
		fa := &factAccess{analyzer: a.Name, selfPath: lp.Pkg.Path(), self: facts, deps: deps}
		pass := &Pass{
			Analyzer:  a,
			Fset:      lp.Fset,
			Files:     lp.Files,
			Pkg:       lp.Pkg,
			TypesInfo: lp.Info,
			Report: func(d Diagnostic) {
				findings = append(findings, Finding{Analyzer: a.Name, Diagnostic: d})
			},
			ImportObjectFact:  fa.importFact,
			ExportObjectFact:  fa.exportFact,
			ImportPackageFact: fa.importPackageFact,
			ExportPackageFact: fa.exportPackageFact,
		}
		if err := a.Run(pass); err != nil {
			return facts, findings, fmt.Errorf("analyzer %s on %s: %w", a.Name, lp.Pkg.Path(), err)
		}
	}
	findings = applyNolint(lp, findings)
	sort.SliceStable(findings, func(i, j int) bool { return findings[i].Pos < findings[j].Pos })
	return facts, findings, nil
}

// NolintPrefix is the namespace all suppression directives must use:
// `//nolint:hafw/<analyzer> // justification`.
const NolintPrefix = "hafw/"

var nolintRe = regexp.MustCompile(`^//\s*nolint:([a-zA-Z0-9_/,\- ]+?)(?:\s*//\s*(.*))?$`)

type nolintDirective struct {
	analyzers     []string
	justified     bool
	pos           token.Pos
	line          int
	ownLine       bool // comment is alone on its line: applies to next line
	unknownSyntax bool
}

// applyNolint filters findings through the file's nolint directives.
func applyNolint(lp *LoadedPackage, findings []Finding) []Finding {
	directives := collectNolint(lp)
	if len(directives) == 0 {
		return findings
	}
	// suppressed[line][analyzer]
	suppressed := make(map[int]map[string]bool)
	mark := func(line int, names []string) {
		m := suppressed[line]
		if m == nil {
			m = make(map[string]bool)
			suppressed[line] = m
		}
		for _, n := range names {
			m[n] = true
		}
	}
	var out []Finding
	for _, d := range directives {
		if !d.justified {
			out = append(out, Finding{Analyzer: "nolint", Diagnostic: Diagnostic{
				Pos:     d.pos,
				Message: "nolint directive requires a justification: use `//nolint:hafw/<analyzer> // why this is safe`",
			}})
			continue
		}
		mark(d.line, d.analyzers)
		if d.ownLine {
			mark(d.line+1, d.analyzers)
		}
	}
	for _, f := range findings {
		line := lp.Fset.Position(f.Pos).Line
		if m := suppressed[line]; m != nil && m[f.Analyzer] {
			continue
		}
		out = append(out, f)
	}
	return out
}

func collectNolint(lp *LoadedPackage) []nolintDirective {
	var out []nolintDirective
	for _, file := range lp.Files {
		tf := lp.Fset.File(file.Pos())
		if tf == nil {
			continue
		}
		// lineHasCode records lines containing non-comment tokens, to
		// distinguish trailing comments from standalone ones.
		lineHasCode := make(map[int]bool)
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				return false
			}
			if _, isComment := n.(*ast.Comment); isComment {
				return false
			}
			if _, isGroup := n.(*ast.CommentGroup); isGroup {
				return false
			}
			if _, isFile := n.(*ast.File); !isFile {
				lineHasCode[lp.Fset.Position(n.Pos()).Line] = true
			}
			return true
		})
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				m := nolintRe.FindStringSubmatch(c.Text)
				if m == nil {
					if strings.HasPrefix(strings.TrimPrefix(c.Text, "//"), "nolint:") {
						// malformed (e.g. bad characters): treat as
						// unjustified so it cannot silently suppress.
						out = append(out, nolintDirective{pos: c.Pos(), line: lp.Fset.Position(c.Pos()).Line})
					}
					continue
				}
				var names []string
				relevant := false
				for _, raw := range strings.Split(m[1], ",") {
					name := strings.TrimSpace(raw)
					if strings.HasPrefix(name, NolintPrefix) {
						names = append(names, strings.TrimPrefix(name, NolintPrefix))
						relevant = true
					}
				}
				if !relevant {
					continue // someone else's nolint (e.g. golangci); not ours to police
				}
				line := lp.Fset.Position(c.Pos()).Line
				out = append(out, nolintDirective{
					analyzers: names,
					justified: strings.TrimSpace(m[2]) != "",
					pos:       c.Pos(),
					line:      line,
					ownLine:   !lineHasCode[line],
				})
			}
		}
	}
	return out
}
