package wire_test

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"hafw/internal/ids"
	"hafw/internal/wire"
)

// The production types (schema.golden) have neither a pointer-shaped
// message nor one whose body is not a struct, and few narrow integers.
// These types give the codec each of those shapes.

// mapOnly is pointer-shaped: a struct whose only field is a map, which an
// interface holds in its data word instead of pointing to it.
type mapOnly struct{ M map[string]uint64 }

// nums is a message whose body is a slice, not a struct.
type nums []uint64

// widths has an integer field of every width.
type widths struct {
	I8  int8
	U8  uint8
	I16 int16
	U16 uint16
	I32 int32
	U32 uint32
	I   int
	U   uint
	P   uintptr
}

// widths64 is widths with every field 64 bits wide. The wire names of the
// two have equal lengths, so a frame of one can be relabelled as the other.
type widths64 struct {
	I8  int64
	U8  uint64
	I16 int64
	U16 uint64
	I32 int64
	U32 uint64
	I   int64
	U   uint64
	P   uint64
}

func (mapOnly) WireName() string  { return "wiretest.maponly" }
func (nums) WireName() string     { return "wiretest.nums" }
func (widths) WireName() string   { return "wiretest.widths.n" }
func (widths64) WireName() string { return "wiretest.widths.w" }

func init() {
	wire.Register(mapOnly{})
	wire.Register(nums{})
	wire.Register(widths{})
	wire.Register(widths64{})
}

// TestUnusualShapesRoundTrip round-trips each shape, alone and inside a
// wire.Message field, through Encode/Decode, CloneEnvelope and
// EncodeFrame.
func TestUnusualShapesRoundTrip(t *testing.T) {
	if !wire.PointerShaped(mapOnly{}) || wire.PointerShaped(nums{}) || wire.PointerShaped(widths{}) {
		t.Fatal("only mapOnly should be pointer-shaped")
	}
	full := widths{
		I8: math.MinInt8, U8: math.MaxUint8, I16: math.MinInt16, U16: math.MaxUint16,
		I32: math.MinInt32, U32: math.MaxUint32, I: math.MinInt64, U: math.MaxUint64, P: 1 << 40,
	}
	for name, m := range map[string]wire.Message{
		"maponly":        mapOnly{M: map[string]uint64{"a": 1, "b": math.MaxUint64}},
		"maponly nil":    mapOnly{},
		"nums":           nums{1, 300, math.MaxUint64},
		"nums nil":       nums(nil),
		"widths":         full,
		"widths max":     widths{I8: math.MaxInt8, I16: math.MaxInt16, I32: math.MaxInt32, I: math.MaxInt64},
		"nested maponly": sparse{S: "x", Msg: mapOnly{M: map[string]uint64{"k": 7}}},
		"nested nums":    sparse{S: "x", Msg: nums{4, 5}},
		"nested widths":  sparse{S: "x", Msg: full},
	} {
		roundTrip(t, name, m)
		checkFrame(t, name, wire.Envelope{From: ids.ProcessEndpoint(1), To: ids.ProcessEndpoint(2), Payload: m})
	}
}

// TestNarrowIntegerOverflow decodes frames whose integer is one past what
// each narrow field of widths holds, and one at the limit: past it fails
// with the overflow error, at it decodes exactly, and neither truncates.
func TestNarrowIntegerOverflow(t *testing.T) {
	decode := func(w widths64) (wire.Message, error) {
		data, err := wire.EncodeMessage(w)
		if err != nil {
			t.Fatal(err)
		}
		return wire.DecodeMessage(bytes.Replace(data, []byte("widths.w"), []byte("widths.n"), 1))
	}
	nt := reflect.TypeOf(widths{})
	for i := 0; i < nt.NumField(); i++ {
		f := nt.Field(i)
		bits := f.Type.Bits()
		if bits == 64 {
			continue
		}
		var at, past []widths64
		if f.Type.Kind() >= reflect.Uint {
			at = append(at, set(i, uint64(1)<<bits-1))
			past = append(past, set(i, uint64(1)<<bits))
		} else {
			at = append(at, set(i, int64(1)<<(bits-1)-1), set(i, -int64(1)<<(bits-1)))
			past = append(past, set(i, int64(1)<<(bits-1)), set(i, -int64(1)<<(bits-1)-1))
		}
		for _, w := range at {
			m, err := decode(w)
			if err != nil {
				t.Fatalf("%s at its limit: %v", f.Name, err)
			}
			got := reflect.ValueOf(m).Field(i)
			want := reflect.ValueOf(w).Field(i)
			if (got.CanInt() && got.Int() != want.Int()) || (got.CanUint() && got.Uint() != want.Uint()) {
				t.Errorf("%s at its limit decoded as %v, want %v", f.Name, got, want)
			}
		}
		for _, w := range past {
			if m, err := decode(w); !errors.Is(err, wire.ErrOverflow) {
				t.Errorf("%s past its limit: decoded %+v, err %v; want the overflow error", f.Name, m, err)
			}
		}
	}
}

// set returns a widths64 whose i-th field is v and the rest zero.
func set[T int64 | uint64](i int, v T) widths64 {
	var w widths64
	reflect.ValueOf(&w).Elem().Field(i).Set(reflect.ValueOf(v))
	return w
}
