package wire_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"hafw/internal/core"
	"hafw/internal/ids"
	"hafw/internal/loadgen"
	"hafw/internal/vsync"
	"hafw/internal/wire"

	// Every package that registers production wire types.
	_ "hafw/internal/exp"
	_ "hafw/internal/fd"
	_ "hafw/internal/membership"
	_ "hafw/internal/rsm"
	_ "hafw/internal/services/edu"
	_ "hafw/internal/services/ledger"
	_ "hafw/internal/services/search"
	_ "hafw/internal/services/vod"
	_ "hafw/internal/unitdb"
)

// leaf is the message the filler nests in every wire.Message field.
type leaf struct {
	S string
	N int64
}

func (leaf) WireName() string { return "wiretest.leaf" }

func init() { wire.Register(leaf{}) }

// filler builds values with every exported field non-zero: two elements
// per slice, two entries per map, a leaf in every wire.Message field.
// Unexported fields stay zero, since the codec does not carry them. A
// sized filler gives every []byte byteLen bytes instead (nil for zero).
type filler struct {
	n       int64
	sized   bool
	byteLen int
}

var messageType = reflect.TypeOf((*wire.Message)(nil)).Elem()

func (f *filler) fill(v reflect.Value) {
	f.n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(-f.n)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(f.n))
	case reflect.Float64:
		v.SetFloat(float64(f.n) + 0.5)
	case reflect.String:
		v.SetString(strings.Repeat("s", int(f.n%7)+1))
	case reflect.Slice:
		if f.sized && v.Type().Elem().Kind() == reflect.Uint8 {
			if f.byteLen > 0 {
				v.SetBytes(pattern(f.byteLen, byte(f.n)))
			}
			return
		}
		s := reflect.MakeSlice(v.Type(), 2, 2)
		f.fill(s.Index(0))
		f.fill(s.Index(1))
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for i := 0; i < 2; i++ {
			k := reflect.New(v.Type().Key()).Elem()
			e := reflect.New(v.Type().Elem()).Elem()
			f.fill(k)
			f.fill(e)
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				f.fill(v.Field(i))
			}
		}
	case reflect.Interface:
		if v.Type() == messageType {
			var l leaf
			f.fill(reflect.ValueOf(&l).Elem())
			v.Set(reflect.ValueOf(l))
		}
	}
}

// filled returns a value of the registered type t with every field set.
func filled(t reflect.Type) wire.Message {
	return fillWith(t, &filler{})
}

func fillWith(t reflect.Type, f *filler) wire.Message {
	v := reflect.New(t).Elem()
	f.fill(v)
	return v.Interface().(wire.Message)
}

// goldenFields maps each wire name in schema.golden to its field list.
func goldenFields(t *testing.T) map[string][]string {
	f, err := os.Open("schema.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string][]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fs := strings.Fields(line)
		out[fs[0]] = fs[2:]
	}
	return out
}

func roundTrip(t *testing.T, name string, m wire.Message) {
	t.Helper()
	env := wire.Envelope{From: ids.ProcessEndpoint(3), To: ids.ClientEndpoint(1 << 40), Payload: m}
	data, err := wire.Encode(env)
	if err != nil {
		t.Fatalf("%s: Encode: %v", name, err)
	}
	got, err := wire.Decode(data)
	if err != nil {
		t.Fatalf("%s: Decode: %v", name, err)
	}
	if !reflect.DeepEqual(got, env) {
		t.Errorf("%s: Decode(Encode(x)) = %+v, want %+v", name, got, env)
	}
	cl, size, err := wire.CloneEnvelope(env)
	if err != nil {
		t.Fatalf("%s: CloneEnvelope: %v", name, err)
	}
	if !reflect.DeepEqual(cl, env) || size != len(data) {
		t.Errorf("%s: CloneEnvelope = %+v (%d bytes), want %+v (%d bytes)", name, cl, size, env, len(data))
	}
}

// clone deep-copies m through CloneEnvelope.
func clone(m wire.Message) (wire.Message, error) {
	env, _, err := wire.CloneEnvelope(wire.Envelope{Payload: m})
	return env.Payload, err
}

// TestEveryGoldenTypeRoundTrips fills every production message type with
// non-zero fields and checks Encode/Decode and CloneEnvelope return an
// equal value. The quickstart example's types are the stand-ins of
// compat_test.go.
func TestEveryGoldenTypeRoundTrips(t *testing.T) {
	types := wire.RegisteredTypes()
	for name := range goldenFields(t) {
		typ, ok := types[name]
		if !ok {
			t.Errorf("%s is in schema.golden but not registered", name)
			continue
		}
		roundTrip(t, name, filled(typ))
	}
}

// sparse has a field of every collection kind, for the empty cases.
type sparse struct {
	B   []byte
	L   []uint64
	M   map[string]int
	S   string
	Msg wire.Message
}

func (sparse) WireName() string { return "wiretest.sparse" }

// hidden carries unexported and unencodable fields next to exported ones.
type hidden struct {
	A      int
	secret string //nolint:hafw/wirecheck // fixture: the codec must skip it
	F      func() //nolint:hafw/wirecheck // fixture: the codec must skip it
	Z      string
}

func (hidden) WireName() string { return "wiretest.hidden" }

// nest holds one message, so frames can nest messages to any depth.
type nest struct{ In wire.Message }

func (nest) WireName() string { return "wiretest.nest" }

func init() {
	wire.Register(sparse{})
	wire.Register(hidden{})
	wire.Register(nest{})
}

// TestNestingDepthBounded checks that messages nested a few levels deep
// decode and that a frame nesting them without end is refused, not
// followed down the stack.
func TestNestingDepthBounded(t *testing.T) {
	deep := func(levels int) wire.Message {
		var m wire.Message = leaf{S: "bottom"}
		for i := 0; i < levels; i++ {
			m = nest{In: m}
		}
		return m
	}
	if _, err := clone(deep(20)); err != nil {
		t.Fatalf("20 levels: %v", err)
	}
	data, err := wire.EncodeMessage(deep(1000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.DecodeMessage(data); err == nil {
		t.Fatal("1000 nested messages decoded")
	}
}

// TestEmptyCollectionsDecodeNil checks empty slices and maps come back
// nil, as they did under gob, whether they left nil or empty.
func TestEmptyCollectionsDecodeNil(t *testing.T) {
	for _, in := range []sparse{{}, {B: []byte{}, L: []uint64{}, M: map[string]int{}}} {
		out, err := clone(in)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out, sparse{}) {
			t.Errorf("clone(%#v) = %#v, want the zero value", in, out)
		}
	}
}

// TestUnexportedFieldsSkipped checks unexported and func fields neither
// travel nor disturb the fields around them.
func TestUnexportedFieldsSkipped(t *testing.T) {
	out, err := clone(hidden{A: 1, secret: "x", F: func() {}, Z: "z"})
	if err != nil {
		t.Fatal(err)
	}
	if h := out.(hidden); h.A != 1 || h.Z != "z" || h.secret != "" || h.F != nil {
		t.Errorf("clone = %#v, want A and Z only", h)
	}
}

// evoV1 and evoV2 are one message before and after an append-only schema
// change; their wire names have equal lengths so a test can relabel a
// frame of one as the other.
type evoV1 struct {
	A int
	B string
}

func (evoV1) WireName() string { return "wiretest.evo.v1" }

type evoV2 struct {
	A int
	B string
	C []uint64
}

func (evoV2) WireName() string { return "wiretest.evo.v2" }

func init() {
	wire.Register(evoV1{})
	wire.Register(evoV2{})
}

// relabel encodes m and renames its type in the frame, standing in for a
// binary that knows the other version.
func relabel(t *testing.T, m wire.Message, from, to string) wire.Message {
	t.Helper()
	data, err := wire.EncodeMessage(m)
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.Replace(data, []byte(from), []byte(to), 1)
	out, err := wire.DecodeMessage(data)
	if err != nil {
		t.Fatalf("decode %s as %s: %v", from, to, err)
	}
	return out
}

// TestTrailingFieldEvolution checks that a frame with one more trailing
// field decodes into the shorter type, and a frame without it decodes
// into the longer type with the field zero.
func TestTrailingFieldEvolution(t *testing.T) {
	v2 := evoV2{A: 5, B: "b", C: []uint64{1, 2}}
	if got := relabel(t, v2, "evo.v2", "evo.v1"); !reflect.DeepEqual(got, evoV1{A: 5, B: "b"}) {
		t.Errorf("new → old = %#v", got)
	}
	v1 := evoV1{A: 5, B: "b"}
	if got := relabel(t, v1, "evo.v1", "evo.v2"); !reflect.DeepEqual(got, evoV2{A: 5, B: "b"}) {
		t.Errorf("old → new = %#v", got)
	}
	// A message nested in another is bounded by its own body too.
	outer := sparse{S: "after", Msg: v2}
	data, err := wire.EncodeMessage(outer)
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.Replace(data, []byte("evo.v2"), []byte("evo.v1"), 1)
	got, err := wire.DecodeMessage(data)
	if err != nil {
		t.Fatal(err)
	}
	if want := (sparse{S: "after", Msg: evoV1{A: 5, B: "b"}}); !reflect.DeepEqual(got, want) {
		t.Errorf("nested new → old = %#v, want %#v", got, want)
	}
}

// innerV1 and innerV2 are one plain struct before and after an
// append-only change. outerV1 and outerV2 nest them ahead of other fields;
// their wire names have equal lengths, for relabel.
type innerV1 struct{ A int }

type innerV2 struct {
	A int
	B string
}

type outerV1 struct {
	In   innerV1
	List []innerV1
	Tail string
}

func (outerV1) WireName() string { return "wiretest.outer.v1" }

type outerV2 struct {
	In   innerV2
	List []innerV2
	Tail string
}

func (outerV2) WireName() string { return "wiretest.outer.v2" }

func init() {
	wire.Register(outerV1{})
	wire.Register(outerV2{})
}

// TestNestedStructEvolution checks that a plain struct inside a message
// may gain a trailing field like a message does: every struct carries its
// length, so the fields after it decode the same under either version.
func TestNestedStructEvolution(t *testing.T) {
	v2 := outerV2{In: innerV2{A: 1, B: "new"}, List: []innerV2{{A: 2, B: "x"}, {A: 3}}, Tail: "tail"}
	want1 := outerV1{In: innerV1{A: 1}, List: []innerV1{{A: 2}, {A: 3}}, Tail: "tail"}
	if got := relabel(t, v2, "outer.v2", "outer.v1"); !reflect.DeepEqual(got, want1) {
		t.Errorf("new → old = %#v, want %#v", got, want1)
	}
	want2 := outerV2{In: innerV2{A: 1}, List: []innerV2{{A: 2}, {A: 3}}, Tail: "tail"}
	if got := relabel(t, want1, "outer.v1", "outer.v2"); !reflect.DeepEqual(got, want2) {
		t.Errorf("old → new = %#v, want %#v", got, want2)
	}
}

// wide is a message whose slice elements are large in memory but may
// arrive as empty bodies, one byte each.
type wide struct{ L []wideElem }

type wideElem struct{ A, B, C, D, E, F, G, H, I, J, K, L, M, N, O, P uint64 }

func (wide) WireName() string { return "wiretest.wide" }

func init() { wire.Register(wide{}) }

// wideFrame is a frame of a wide with n elements sent as empty bodies.
func wideFrame(n int) []byte {
	body := binary.AppendUvarint(nil, uint64(n))
	body = append(body, make([]byte, n)...) // n empty element bodies
	frame := []byte{0xb1, 1, 1, 1, 2}
	frame = binary.AppendUvarint(frame, uint64(len("wiretest.wide")))
	frame = append(frame, "wiretest.wide"...)
	frame = binary.AppendUvarint(frame, uint64(len(body)))
	return append(frame, body...)
}

// TestDecodeAllocationBounded checks that a frame that would expand past
// the allocation budget is refused instead of decoded, while a few of the
// same elements decode.
func TestDecodeAllocationBounded(t *testing.T) {
	env, err := wire.Decode(wideFrame(2))
	if err != nil {
		t.Fatalf("two empty elements: %v", err)
	}
	if got := env.Payload.(wide); len(got.L) != 2 || got.L[1] != (wideElem{}) {
		t.Fatalf("two empty elements decoded as %+v", got)
	}
	data := wideFrame(10000)
	if _, err := wire.Decode(data); err == nil {
		t.Fatal("10 000 empty 128-byte elements decoded")
	}
	if alloc := decodeAlloc(data); alloc > uint64(allocFactor*len(data)+1024) {
		t.Fatalf("refusing %d bytes allocated %d", len(data), alloc)
	}
}

// allocFactor bounds what decoding may allocate per input byte: the
// decoder charges what it allocates to a budget of that many bytes per
// input byte (allocPerByte in codec.go) and refuses an input that would
// overdraw it.
const allocFactor = 32

// decodeAlloc measures the bytes one Decode of data allocates. Call it
// after a first decode of data, which may pay for one-time set-up in the
// runtime. The heap counters are process-wide and the fuzzing engine
// allocates beside the test, so it takes the least of a few decodes.
func decodeAlloc(data []byte) uint64 {
	least := ^uint64(0)
	for i := 0; i < 4; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _ = wire.Decode(data)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n < least {
			least = n
		}
	}
	return least
}

// FuzzDecode feeds Decode arbitrary frames, seeded with one frame of every
// registered type. Decode must never panic, must allocate at most
// allocFactor bytes per input byte, must reject a truncated frame, and
// must decode what it re-encodes to the same value.
func FuzzDecode(f *testing.F) {
	types := wire.RegisteredTypes()
	for _, name := range wire.RegisteredNames() {
		data, err := wire.Encode(wire.Envelope{From: ids.ProcessEndpoint(1), To: ids.ProcessEndpoint(2), Payload: filled(types[name])})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// Frames whose counts claim far more elements than bytes follow: one
	// each for sparse's byte slice, uint64 slice and map.
	for _, body := range [][]byte{
		binary.AppendUvarint(nil, 1<<31),
		binary.AppendUvarint([]byte{0}, 1<<31),
		binary.AppendUvarint([]byte{0, 0}, 1<<31),
	} {
		frame := []byte{0xb1, 1, 1, 1, 2}
		frame = binary.AppendUvarint(frame, uint64(len("wiretest.sparse")))
		frame = append(frame, "wiretest.sparse"...)
		frame = binary.AppendUvarint(frame, uint64(len(body)+3))
		f.Add(append(append(frame, body...), 1, 2, 3))
	}
	f.Add(wideFrame(1000))
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := wire.Decode(data)
		if alloc := decodeAlloc(data); alloc > uint64(allocFactor*len(data)+1024) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		for _, cut := range []int{len(data) - 1, len(data) / 2} {
			if _, err := wire.Decode(data[:cut]); err == nil {
				t.Fatalf("a frame cut to %d of %d bytes decoded", cut, len(data))
			}
		}
		again, err := wire.Encode(env)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		env2, err := wire.Decode(again)
		if err != nil || !reflect.DeepEqual(env2, env) {
			t.Fatalf("re-decode = %+v, %v; want %+v", env2, err, env)
		}
	})
}

// TestCloneEnvelopeAllocs pins the allocations of one CloneEnvelope of a
// client's 64-byte echo request on its way into a session group, the
// envelope the request path clones at every hop: one per decoded message
// and one per string and byte slice. A decoded message boxed a second
// time, an encoder or decoder allocated per call, or a codec that walks
// fields by reflection, shows up here.
func TestCloneEnvelopeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items, so the pooled coder is allocated at random")
	}
	if unsafeEscapes() {
		t.Skip("this build moves every value converted to unsafe.Pointer to the heap")
	}
	env := wire.Envelope{
		From: ids.ClientEndpoint(5001), To: ids.ProcessEndpoint(1),
		Payload: vsync.ClientSend{
			Group: core.SessionGroup("load-0", 7),
			ID:    ids.MsgID{Sender: ids.ClientEndpoint(5001), Seq: 42},
			Payload: core.ClientRequest{Session: 7,
				Body: loadgen.EchoReq{Seq: 42, Pad: make([]byte, 64)}},
		},
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := wire.CloneEnvelope(env); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > cloneAllocs {
		t.Fatalf("CloneEnvelope of a small request allocates %.1f times, want at most %d", allocs, cloneAllocs)
	}
}

// unsafeEscapes reports a build that moves every value converted to
// unsafe.Pointer to the heap, as -gcflags=-d=checkptr=2 does so that it can
// check the conversions.
func unsafeEscapes() bool {
	return testing.AllocsPerRun(10, func() {
		x := uint64(5)
		unsafeSink = *(*uint64)(unsafe.Pointer(&x))
	}) > 0
}

var unsafeSink uint64

// cloneAllocs is what TestCloneEnvelopeAllocs's CloneEnvelope allocates:
// three messages, the group name and the padding.
const cloneAllocs = 5
