package core

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"hafw/internal/wire"
)

// mapCtx is a context whose encoding depends on map order.
type mapCtx struct {
	M map[string]int
}

func (mapCtx) WireName() string { return "coretest.mapCtx" }

func init() { wire.Register(mapCtx{}) }

// gobTestCtx is testCtx{Updates: ["a", "b"], Pos: 2} as gob encoded it
// before contexts moved to the wire codec.
const gobTestCtx = "297f030101077465737443747801ff8000010201075570646174657301ff82000103506f73010400000016ff81020101085b5d737472696e6701ff8200010c00000bff80010201610162010400"

func TestDecodeContext(t *testing.T) {
	want := testCtx{Updates: []string{"a", "b"}, Pos: 2}
	legacy, err := hex.DecodeString(gobTestCtx)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		in   []byte
		ok   bool
	}{
		{"empty", nil, false},
		{"binary", EncodeContext(want), true},
		{"legacy gob", legacy, true},
		{"other registered type", EncodeContext(updReq{S: "a", Echo: true}), false},
		{"garbage", []byte("not a context"), false},
		{"truncated binary", EncodeContext(want)[:10], false},
	} {
		got, ok := DecodeContext[testCtx](tc.in)
		if ok != tc.ok {
			t.Errorf("%s: ok = %v, want %v", tc.name, ok, tc.ok)
			continue
		}
		if ok && !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, want)
		}
		if !ok && !reflect.DeepEqual(got, testCtx{}) {
			t.Errorf("%s: failed decode returned %+v, want the zero context", tc.name, got)
		}
	}
}

// TestEncodeContextDeterministic checks equal contexts encode to equal
// bytes, whatever the map insertion order: propagation skips a context
// whose bytes did not change.
func TestEncodeContextDeterministic(t *testing.T) {
	a, b := map[string]int{}, map[string]int{}
	keys := []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"}
	for i, k := range keys {
		a[k] = i
		b[keys[len(keys)-1-i]] = len(keys) - 1 - i
	}
	if x, y := EncodeContext(mapCtx{M: a}), EncodeContext(mapCtx{M: b}); !bytes.Equal(x, y) {
		t.Fatalf("equal maps encoded differently:\n%x\n%x", x, y)
	}
	want := testCtx{Updates: []string{"a", "b"}, Pos: 2}
	if !bytes.Equal(EncodeContext(want), EncodeContext(testCtx{Updates: append([]string(nil), want.Updates...), Pos: 2})) {
		t.Fatal("equal contexts encoded differently")
	}
}
