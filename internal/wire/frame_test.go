package wire_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"hafw/internal/ids"
	"hafw/internal/wire"
)

// deep places byte slices at every depth a frame encoding must handle:
// directly in the message, three structs down, in a slice of structs, as
// map values, and inside a nested wire.Message.
type deep struct {
	Head []byte
	A    deepA
	L    []deepC
	M    map[string][]byte
	Msg  wire.Message
	N    int
}

type deepA struct{ B deepB }

type deepB struct {
	C   deepC
	Pad string
}

type deepC struct {
	Data []byte
	N    int
}

// blobMsg is a bare byte slice, carried inside deep's Msg.
type blobMsg struct{ Data []byte }

func (deep) WireName() string    { return "wiretest.deep" }
func (blobMsg) WireName() string { return "wiretest.blob" }

func init() {
	wire.Register(deep{})
	wire.Register(blobMsg{})
}

// pattern returns n bytes counting up from first, or nil for n = 0, as a
// decoded empty slice is.
func pattern(n int, first byte) []byte {
	if n == 0 {
		return nil
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = first + byte(i)
	}
	return b
}

// deepOf builds a deep whose byte slices are a, b and c bytes long.
func deepOf(a, b, c int) deep {
	return deep{
		Head: pattern(a, 1),
		A:    deepA{B: deepB{C: deepC{Data: pattern(b, 2), N: -3}, Pad: "pad"}},
		L:    []deepC{{Data: pattern(c, 3), N: 4}, {Data: pattern(a, 5)}},
		M:    map[string][]byte{"b": pattern(b, 6), "c": pattern(c, 7)},
		Msg:  blobMsg{Data: pattern(c, 8)},
		N:    a + b + c,
	}
}

// large counts the byte slices in v that a frame carries out of line.
func large(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			if v.Len() >= wire.OutOfLine {
				return 1
			}
			return 0
		}
		n := 0
		for i := 0; i < v.Len(); i++ {
			n += large(v.Index(i))
		}
		return n
	case reflect.Map:
		n := 0
		for it := v.MapRange(); it.Next(); {
			n += large(it.Value())
		}
		return n
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				n += large(v.Field(i))
			}
		}
		return n
	case reflect.Interface:
		if !v.IsNil() {
			return large(v.Elem())
		}
	}
	return 0
}

// checkFrame checks that env's frame is its length prefix followed by
// exactly Encode's bytes, that every large byte slice went out of line,
// and that the frame decodes back to env.
func checkFrame(t testing.TB, name string, env wire.Envelope) {
	t.Helper()
	want, err := wire.Encode(env)
	if err != nil {
		t.Fatalf("%s: Encode: %v", name, err)
	}
	f, err := wire.EncodeFrame(env, 0)
	if err != nil {
		t.Fatalf("%s: EncodeFrame: %v", name, err)
	}
	defer f.Release()
	pieces := f.AppendTo(nil)
	got := bytes.Join(pieces, nil)
	if len(got) != f.Len() || len(got) < wire.FrameHeader {
		t.Fatalf("%s: frame pieces hold %d bytes, Len says %d", name, len(got), f.Len())
	}
	if n := binary.BigEndian.Uint32(got); n != uint32(len(want)) {
		t.Fatalf("%s: length prefix %d, Encode wrote %d bytes", name, n, len(want))
	}
	if !bytes.Equal(got[wire.FrameHeader:], want) {
		t.Fatalf("%s: frame body differs from Encode", name)
	}
	if k := large(reflect.ValueOf(env.Payload)); len(pieces) != 1+2*k {
		t.Fatalf("%s: %d pieces for %d out-of-line slices, want %d", name, len(pieces), k, 1+2*k)
	}
	dec, err := wire.Decode(got[wire.FrameHeader:])
	if err != nil {
		t.Fatalf("%s: Decode: %v", name, err)
	}
	if !reflect.DeepEqual(dec, env) {
		t.Fatalf("%s: frame decodes to %+v, want %+v", name, dec, env)
	}
}

// frameLens are byte slice lengths either side of wire.OutOfLine.
var frameLens = []int{0, wire.OutOfLine - 1, wire.OutOfLine, 64 << 10}

// TestFrameMatchesEncode checks the frame of every schema.golden type,
// with its byte slices at each of frameLens, and of deep at every mix of
// those lengths, against Encode.
func TestFrameMatchesEncode(t *testing.T) {
	types := wire.RegisteredTypes()
	for name := range goldenFields(t) {
		typ, ok := types[name]
		if !ok {
			continue // TestEveryGoldenTypeRoundTrips reports a missing type
		}
		for _, n := range frameLens {
			env := wire.Envelope{From: ids.ProcessEndpoint(3), To: ids.ClientEndpoint(1 << 40),
				Payload: fillWith(typ, &filler{sized: true, byteLen: n})}
			checkFrame(t, name, env)
		}
	}
	for _, a := range frameLens {
		for _, b := range frameLens {
			for _, c := range frameLens {
				checkFrame(t, "deep", wire.Envelope{From: ids.ProcessEndpoint(1), To: ids.ProcessEndpoint(2), Payload: deepOf(a, b, c)})
			}
		}
	}
}

// TestFrameReferencesLargeBytes checks that a large byte slice leaves the
// encoder as the message holds it, not as a copy.
func TestFrameReferencesLargeBytes(t *testing.T) {
	data := pattern(64<<10, 0)
	f, err := wire.EncodeFrame(wire.Envelope{From: ids.ProcessEndpoint(1), To: ids.ProcessEndpoint(2), Payload: blobMsg{Data: data}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	pieces := f.AppendTo(nil)
	if len(pieces) != 3 || len(pieces[1]) != len(data) || &pieces[1][0] != &data[0] {
		t.Fatalf("frame pieces %d, want the payload referenced as the second of 3", len(pieces))
	}
}

// TestFrameLimitCountsOutOfLine checks that the frame size limit counts
// the bytes a frame references, not only those it copies.
func TestFrameLimitCountsOutOfLine(t *testing.T) {
	env := wire.Envelope{From: ids.ProcessEndpoint(1), To: ids.ProcessEndpoint(2), Payload: blobMsg{Data: pattern(64<<10, 0)}}
	data, err := wire.Encode(env)
	if err != nil {
		t.Fatal(err)
	}
	f, err := wire.EncodeFrame(env, len(data))
	if err != nil {
		t.Fatalf("frame of exactly the limit: %v", err)
	}
	f.Release()
	if _, err := wire.EncodeFrame(env, len(data)-1); !errors.Is(err, wire.ErrFrameTooLarge) {
		t.Fatalf("frame one byte over the limit: err = %v, want ErrFrameTooLarge", err)
	}
}

// FuzzEncodeFrame checks frames against Encode for byte slices of fuzzed
// lengths, up to 128 KiB, at every depth deep places them.
func FuzzEncodeFrame(f *testing.F) {
	for _, a := range frameLens {
		for _, b := range frameLens {
			f.Add(uint32(a), uint32(b), uint32(frameLens[(a+b)%len(frameLens)]))
		}
	}
	f.Fuzz(func(t *testing.T, a, b, c uint32) {
		const most = 128 << 10
		env := wire.Envelope{From: ids.ProcessEndpoint(1), To: ids.ClientEndpoint(2),
			Payload: deepOf(int(a%most), int(b%most), int(c%most))}
		checkFrame(t, "deep", env)
	})
}
