package main

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// halintBin is the halint binary under test, built once by TestMain.
var halintBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "halint-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	halintBin = filepath.Join(dir, "halint")
	out, err := exec.Command("go", "build", "-o", halintBin, ".").CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "building halint: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runHalint runs halint in dir and returns its exit status and the
// finding lines it printed.
func runHalint(t *testing.T, dir string, args ...string) (int, []string) {
	t.Helper()
	cmd := exec.Command(halintBin, args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	code := 0
	if errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatalf("running halint: %v", err)
	}
	var lines []string
	for _, l := range strings.Split(strings.TrimSpace(stderr.String()), "\n") {
		if l != "" {
			lines = append(lines, l)
		}
	}
	return code, lines
}

func writeFiles(t *testing.T, root string, files map[string]string) {
	t.Helper()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// leak is a function body that ends its span on one return path only.
const leak = `
	sp := r.StartSpan()
	if fail {
		return
	}
	sp.End()
}
`

// TestTestFilesAreChecked leaks one span in each kind of file a package
// has: a non-test file, an in-package _test.go file, and an external
// _test package that reaches the package through an export_test.go
// helper (so it type-checks only against the test variant).
func TestTestFilesAreChecked(t *testing.T) {
	dir := t.TempDir()
	writeFiles(t, dir, map[string]string{
		"go.mod": "module fixture\n\ngo 1.22\n",
		"internal/trace/trace.go": `package trace

type Recorder struct{}

type Span struct{}

func (r *Recorder) StartSpan() *Span { return &Span{} }

func (s *Span) End() {}
`,
		"p/p.go": `package p

import "fixture/internal/trace"

func newRecorder() *trace.Recorder { return &trace.Recorder{} }

func Leak(r *trace.Recorder, fail bool) {` + leak,
		"p/p_test.go": `package p

import "fixture/internal/trace"

func leakInTest(r *trace.Recorder, fail bool) {` + leak,
		"p/export_test.go": `package p

var NewRecorder = newRecorder
`,
		"p/x_test.go": `package p_test

import "fixture/p"

func leakInXTest(fail bool) {
	r := p.NewRecorder()` + leak,
	})

	code, lines := runHalint(t, dir, "./...")
	if code != 2 {
		t.Errorf("exit status %d, want 2", code)
	}
	sort.Strings(lines)
	want := []string{"p/p.go:8:8:", "p/p_test.go:6:8:", "p/x_test.go:7:8:"}
	if len(lines) != len(want) {
		t.Fatalf("got %d findings, want one per leak:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	for i, l := range lines {
		if !strings.Contains(l, want[i]) || !strings.Contains(l, "leakcheck: span sp is not ended on every return path") {
			t.Errorf("finding %d = %q, want the leak at %s", i, l, want[i])
		}
	}
}

// TestWriteSchemaReproducesGolden regenerates the wire schema in a copy
// of the module and checks it matches the committed golden file.
func TestWriteSchemaReproducesGolden(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("internal", "wire", "schema.golden")
	want, err := os.ReadFile(filepath.Join(root, golden))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if name := d.Name(); rel != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if rel != "go.mod" && !strings.HasSuffix(rel, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		writeFiles(t, dir, map[string]string{filepath.ToSlash(rel): string(src)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	if code, lines := runHalint(t, dir, "-writeschema", "./..."); code != 0 {
		t.Fatalf("halint -writeschema: exit %d\n%s", code, strings.Join(lines, "\n"))
	}
	got, err := os.ReadFile(filepath.Join(dir, golden))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-writeschema output differs from %s:\n%s", golden, got)
	}
}
