package wire_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hafw/internal/wire"
)

var writeCompat = flag.Bool("writecompat", false, "add the missing files of testdata/compat (never rewrites one)")

// compatDir holds the frozen compatibility corpus: one EncodeMessage
// encoding of a filled value per schema.golden line, named
// <wire name>.<field count>.bin after the line it was written against.
// Files are only ever added. When a message gains a trailing field, its
// golden line changes, the test asks for a file for the new line, and the
// old file stays to prove the old encoding still decodes.
const compatDir = "testdata/compat"

// The quickstart example's messages live in a main package no test can
// import. These stand-ins carry the same wire names and fields;
// TestCompatCorpus checks the fields against schema.golden, and wirecheck
// checks the example's own types against it.
type (
	qsGreet      struct{}
	qsGreeting   struct{ Text string }
	qsSetName    struct{ Name string }
	qsGreeterCtx struct {
		Name  string
		Count int
	}
)

func (qsGreet) WireName() string      { return "quickstart.Greet" }
func (qsGreeting) WireName() string   { return "quickstart.Greeting" }
func (qsSetName) WireName() string    { return "quickstart.SetName" }
func (qsGreeterCtx) WireName() string { return "quickstart.greeterCtx" }

func init() {
	wire.Register(qsGreet{})
	wire.Register(qsGreeting{})
	wire.Register(qsSetName{})
	wire.Register(qsGreeterCtx{})
}

// TestCompatCorpus decodes every corpus file and checks a file written
// against the current golden line re-encodes to the same bytes. It fails
// when a golden line has no file; run it with -writecompat to add one.
func TestCompatCorpus(t *testing.T) {
	golden := goldenFields(t)
	types := wire.RegisteredTypes()
	for name, fields := range golden {
		typ, ok := types[name]
		if !ok {
			continue // TestEveryGoldenTypeRoundTrips reports a missing type
		}
		if strings.HasPrefix(name, "quickstart.") {
			var got []string
			for i := 0; i < typ.NumField(); i++ {
				got = append(got, typ.Field(i).Name+":"+typ.Field(i).Type.String())
			}
			if strings.Join(got, " ") != strings.Join(fields, " ") {
				t.Errorf("stand-in for %s has fields %v, schema.golden has %v", name, got, fields)
			}
		}
		path := filepath.Join(compatDir, fmt.Sprintf("%s.%d.bin", name, len(fields)))
		if _, err := os.Stat(path); err == nil {
			continue
		}
		if !*writeCompat {
			t.Errorf("no %s for %s; run go test ./internal/wire -run TestCompatCorpus -writecompat", path, name)
			continue
		}
		data, err := wire.EncodeMessage(filled(typ))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	files, err := filepath.Glob(filepath.Join(compatDir, "*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		base := strings.TrimSuffix(filepath.Base(path), ".bin")
		dot := strings.LastIndexByte(base, '.')
		name, count := base[:dot], base[dot+1:]
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m, err := wire.DecodeMessage(data)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if m.WireName() != name {
			t.Errorf("%s decodes as %s", path, m.WireName())
			continue
		}
		again, err := wire.EncodeMessage(m)
		if err != nil {
			t.Errorf("%s: re-encode: %v", path, err)
			continue
		}
		if fields, ok := golden[name]; ok && count == fmt.Sprint(len(fields)) && !bytes.Equal(again, data) {
			t.Errorf("%s re-encodes differently:\n got %x\nwant %x", path, again, data)
		}
		if back, err := wire.DecodeMessage(again); err != nil || !reflect.DeepEqual(back, m) {
			t.Errorf("%s: re-encoding decodes to %+v, %v; want %+v", path, back, err, m)
		}
	}
}
