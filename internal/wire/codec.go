package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
)

// The binary codec. A message travels as its WireName followed by a
// length-prefixed body; the body holds the type's exported fields in
// declaration order:
//
//	bool                 one byte, 0 or 1
//	signed integers      zig-zag varint
//	unsigned integers    varint
//	float64              IEEE 754 bits, little-endian, 8 bytes
//	string, []byte       varint length, then the bytes
//	slice                varint count, then the elements
//	map                  varint count, then key/value pairs in ascending key
//	                     order (string and integer keys)
//	struct               varint body length, then the exported fields in
//	                     declaration order
//	wire.Message         varint name length and name (empty: nil), then
//	                     the body: the struct encoding of the value
//
// Register refuses any other kind of field, so a message type that needs
// one fails at start-up, not on the wire.
//
// Unexported, func and chan fields are skipped, and empty slices and maps
// decode as nil, as they did under gob. Every struct, a message body or a
// plain struct inside one, carries its length: a decoder stops at the end
// of a body, leaving fields the sender did not know zero and skipping
// trailing fields it does not know, which is what lets the append-only
// schema (schema.golden) mix old and new binaries at any nesting depth.
//
// Decoding checks every length and count against the bytes left before it
// allocates, and charges what it allocates to a budget of allocPerByte
// bytes per input byte, so a hostile input cannot make it allocate more
// than a fixed multiple of its own size.
//
// A codec is compiled once per Go type, at Register time, by reflection;
// encoding and decoding walk the compiled codec and keep no state between
// messages.

// codec is the compiled encode/decode plan for one Go type.
type codec struct {
	typ  reflect.Type
	kind reflect.Kind
	// elem is the element codec of slices and the value codec of maps.
	elem *codec
	// key is the key codec of maps.
	key *codec
	// fields are the encoded fields of structs, in declaration order.
	fields []field
	// min is the fewest bytes one value encodes to. Decoding checks every
	// count against it, so a corrupt count fails before it can allocate
	// more elements than the bytes left could hold.
	min int
	// size is the bytes one value occupies in memory, charged to the
	// decoding budget when values are allocated.
	size int
}

type field struct {
	index int
	c     *codec
}

var messageType = reflect.TypeOf((*Message)(nil)).Elem()

// compile returns the codec for t, building it (and every codec it
// depends on) into cache. It panics on a type the wire cannot carry: that
// is a programming error in the type's declaration, caught at Register.
func compile(t reflect.Type, cache map[reflect.Type]*codec) *codec {
	if c := cache[t]; c != nil {
		return c
	}
	c := &codec{typ: t, kind: t.Kind(), min: 1, size: int(t.Size())}
	cache[t] = c // before recursing: a type may reach itself through a slice or map
	switch c.kind {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.String:
	case reflect.Float64:
		c.min = 8
	case reflect.Slice:
		c.elem = compile(t.Elem(), cache)
	case reflect.Map:
		c.key = compile(t.Key(), cache)
		c.elem = compile(t.Elem(), cache)
		switch c.key.kind {
		case reflect.String,
			reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		default:
			panic(fmt.Sprintf("wire: map key type %s cannot be sorted for encoding", t.Key()))
		}
	case reflect.Struct:
		// min stays 1, the length of an empty body: a sender that predates
		// every field sends one.
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() || f.Type.Kind() == reflect.Func || f.Type.Kind() == reflect.Chan {
				continue
			}
			c.fields = append(c.fields, field{index: i, c: compile(f.Type, cache)})
		}
	case reflect.Interface:
		if t != messageType {
			panic(fmt.Sprintf("wire: interface type %s is not wire.Message", t))
		}
	default:
		panic(fmt.Sprintf("wire: type %s (kind %s) cannot travel on the wire", t, c.kind))
	}
	return c
}

// --- encoding ---

// encoder appends one encoded input to b. The first failure sticks in err
// and ends the encoding.
//
// A frame encoder (frame set) leaves every []byte of at least OutOfLine
// bytes where it lies: b gets its length prefix, and segs records the
// bytes to be sent after that prefix. The input's encoding is then b with
// each segment's bytes inserted at its offset.
type encoder struct {
	b     []byte
	err   error
	frame bool
	segs  []segment
}

// segment is a byte slice encoded out of line: its bytes come before b[off].
type segment struct {
	off  int
	data []byte
}

// OutOfLine is the smallest []byte a frame encoding references instead of
// copying. Below it, copying costs less than a separate write vector entry.
const OutOfLine = 4 << 10

// zeros pads a body length prefix that outgrew its one reserved byte.
var zeros [binary.MaxVarintLen64]byte

func (c *codec) encode(e *encoder, v reflect.Value) {
	switch c.kind {
	case reflect.Bool:
		if v.Bool() {
			e.b = append(e.b, 1)
		} else {
			e.b = append(e.b, 0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		e.b = binary.AppendVarint(e.b, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		e.b = binary.AppendUvarint(e.b, v.Uint())
	case reflect.Float64:
		e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v.Float()))
	case reflect.String:
		s := v.String()
		e.b = append(binary.AppendUvarint(e.b, uint64(len(s))), s...)
	case reflect.Slice:
		if c.elem.kind == reflect.Uint8 {
			bs := v.Bytes()
			e.b = binary.AppendUvarint(e.b, uint64(len(bs)))
			if e.frame && len(bs) >= OutOfLine {
				e.segs = append(e.segs, segment{off: len(e.b), data: bs})
				return
			}
			e.b = append(e.b, bs...)
			return
		}
		c.encodeElems(e, v)
	case reflect.Map:
		c.encodeMap(e, v)
	case reflect.Struct:
		at := e.open()
		for _, f := range c.fields {
			f.c.encode(e, v.Field(f.index))
		}
		e.close(at)
	case reflect.Interface:
		if v.IsNil() {
			e.b = append(e.b, 0)
			return
		}
		e.message(v.Elem())
	}
}

func (c *codec) encodeElems(e *encoder, v reflect.Value) {
	n := v.Len()
	e.b = binary.AppendUvarint(e.b, uint64(n))
	for i := 0; i < n; i++ {
		c.elem.encode(e, v.Index(i))
	}
}

// encodeMap writes a map's entries in ascending key order, so equal maps
// encode to equal bytes.
func (c *codec) encodeMap(e *encoder, v reflect.Value) {
	e.b = binary.AppendUvarint(e.b, uint64(v.Len()))
	if v.Len() == 0 {
		return
	}
	keys := v.MapKeys()
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	for _, k := range keys {
		c.key.encode(e, k)
		c.elem.encode(e, v.MapIndex(k))
	}
}

// keyLess orders two map keys of one of the kinds compile accepts.
func keyLess(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.String:
		return a.String() < b.String()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() < b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() < b.Uint()
	}
	return false
}

// message writes one message — name, then length-prefixed body — for the
// concrete value v. It fails if v's type is not registered.
func (e *encoder) message(v reflect.Value) {
	mt := lookupType(v.Type())
	if mt == nil {
		e.fail(fmt.Errorf("wire: encode: unregistered message type %s", v.Type()))
		return
	}
	e.b = binary.AppendUvarint(e.b, uint64(len(mt.name)))
	e.b = append(e.b, mt.name...)
	if mt.body.kind == reflect.Struct {
		mt.body.encode(e, v) // a struct brings its own length
		return
	}
	at := e.open()
	mt.body.encode(e, v)
	e.close(at)
}

// open reserves one byte for the length of the body that follows and
// returns its position, for close.
func (e *encoder) open() int {
	e.b = append(e.b, 0)
	return len(e.b) - 1
}

// close writes the length of the body opened at at, counting the
// segments inside it. A body of 128 bytes or more moves its inline bytes,
// and the offsets of its segments, up to make room for its longer varint.
func (e *encoder) close(at int) {
	inline := len(e.b) - at - 1
	n := inline
	for i := len(e.segs) - 1; i >= 0 && e.segs[i].off > at; i-- {
		n += len(e.segs[i].data)
	}
	if n < 0x80 {
		e.b[at] = byte(n)
		return
	}
	w := uvarintLen(uint64(n))
	e.b = append(e.b, zeros[:w-1]...)
	copy(e.b[at+w:], e.b[at+1:at+1+inline])
	binary.PutUvarint(e.b[at:], uint64(n))
	for i := len(e.segs) - 1; i >= 0 && e.segs[i].off > at; i-- {
		e.segs[i].off += w - 1
	}
}

func (e *encoder) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// --- decoding ---

var (
	errTruncated = errors.New("wire: decode: truncated input")
	errOverflow  = errors.New("wire: decode: value overflows its field")
)

// maxDepth bounds how deeply structs and messages may nest in one input.
// Registered types nest a handful of levels; the bound keeps a hostile
// frame of nested messages from growing the decoding stack without limit.
const maxDepth = 100

var errTooDeep = errors.New("wire: decode: values nest too deeply")

// allocPerByte bounds what decoding may allocate per input byte. The
// widest legitimate expansion is a registered message of a few hundred
// bytes in memory named in a dozen bytes on the wire, allocated once to
// decode into and once more to box it as a wire.Message.
const allocPerByte = 32

var errTooLarge = errors.New("wire: decode: input expands beyond the allocation budget")

// decoder reads one encoded input front to back.
type decoder struct {
	b     []byte
	depth int
	// budget is the bytes decoding may still allocate.
	budget int
}

func newDecoder(b []byte) decoder {
	return decoder{b: b, budget: allocPerByte * len(b)}
}

// charge takes n values of size bytes from the allocation budget, failing
// when they do not fit.
func (d *decoder) charge(n, size int) error {
	if size > 0 && n > d.budget/size {
		return errTooLarge
	}
	d.budget -= n * size
	return nil
}

// enter narrows d to the length-prefixed body that comes next and returns
// the input after it, for leave.
func (d *decoder) enter() ([]byte, error) {
	size, err := d.count(1)
	if err != nil {
		return nil, err
	}
	if d.depth >= maxDepth {
		return nil, errTooDeep
	}
	d.depth++
	rest := d.b[size:]
	d.b = d.b[:size:size]
	return rest, nil
}

// leave skips what is left of the body entered, fields this binary does
// not know, and resumes after it.
func (d *decoder) leave(rest []byte) {
	d.b = rest
	d.depth--
}

func (d *decoder) uvarint() (uint64, error) {
	x, n := binary.Uvarint(d.b)
	if n <= 0 {
		return 0, errTruncated
	}
	d.b = d.b[n:]
	return x, nil
}

// count reads a length or element count and checks that the bytes left
// can hold that many elements of at least min bytes each.
func (d *decoder) count(min int) (int, error) {
	x, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if min < 1 {
		min = 1
	}
	if x > uint64(len(d.b)/min) {
		return 0, errTruncated
	}
	return int(x), nil
}

// bytes consumes the next n bytes, which count has checked are there.
func (d *decoder) bytes(n int) []byte {
	p := d.b[:n:n]
	d.b = d.b[n:]
	return p
}

// decode reads one value into v, which is settable and zero.
func (c *codec) decode(d *decoder, v reflect.Value) error {
	switch c.kind {
	case reflect.Bool:
		if len(d.b) == 0 || d.b[0] > 1 {
			return errTruncated
		}
		v.SetBool(d.b[0] == 1)
		d.b = d.b[1:]
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x, n := binary.Varint(d.b)
		if n <= 0 {
			return errTruncated
		}
		d.b = d.b[n:]
		if v.OverflowInt(x) {
			return errOverflow
		}
		v.SetInt(x)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		x, err := d.uvarint()
		if err != nil {
			return err
		}
		if v.OverflowUint(x) {
			return errOverflow
		}
		v.SetUint(x)
	case reflect.Float64:
		if len(d.b) < 8 {
			return errTruncated
		}
		v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(d.b)))
		d.b = d.b[8:]
	case reflect.String:
		n, err := d.count(1)
		if err != nil {
			return err
		}
		if n > 0 {
			if err := d.charge(n, 1); err != nil {
				return err
			}
			v.SetString(string(d.bytes(n)))
		}
	case reflect.Slice:
		return c.decodeSlice(d, v)
	case reflect.Map:
		return c.decodeMap(d, v)
	case reflect.Struct:
		return c.decodeStruct(d, v)
	case reflect.Interface:
		m, err := d.message()
		if err != nil {
			return err
		}
		if m.IsValid() {
			v.Set(m)
		}
	}
	return nil
}

// decodeStruct reads a struct's fields until its body ends. Fields past
// the end keep their zero value (the sender predates them); bytes past the
// last field are skipped (the sender has fields this binary does not).
func (c *codec) decodeStruct(d *decoder, v reflect.Value) error {
	rest, err := d.enter()
	if err != nil {
		return err
	}
	for _, f := range c.fields {
		if len(d.b) == 0 {
			break
		}
		if err := f.c.decode(d, v.Field(f.index)); err != nil {
			return err
		}
	}
	d.leave(rest)
	return nil
}

// decodeSlice reads a slice; an empty one stays nil.
func (c *codec) decodeSlice(d *decoder, v reflect.Value) error {
	n, err := d.count(c.elem.min)
	if err != nil || n == 0 {
		return err
	}
	if err := d.charge(n, c.elem.size); err != nil {
		return err
	}
	if c.elem.kind == reflect.Uint8 {
		v.SetBytes(append([]byte(nil), d.bytes(n)...))
		return nil
	}
	s := reflect.MakeSlice(c.typ, n, n)
	for i := 0; i < n; i++ {
		if err := c.elem.decode(d, s.Index(i)); err != nil {
			return err
		}
	}
	v.Set(s)
	return nil
}

// decodeMap reads a map; an empty one stays nil.
func (c *codec) decodeMap(d *decoder, v reflect.Value) error {
	n, err := d.count(c.key.min + c.elem.min)
	if err != nil || n == 0 {
		return err
	}
	// A map's table holds about twice its entries' bytes.
	if err := d.charge(n, 2*(c.key.size+c.elem.size)); err != nil {
		return err
	}
	m := reflect.MakeMapWithSize(c.typ, n)
	k := reflect.New(c.key.typ).Elem()
	e := reflect.New(c.elem.typ).Elem()
	for i := 0; i < n; i++ {
		k.SetZero()
		e.SetZero()
		if err := c.key.decode(d, k); err != nil {
			return err
		}
		if err := c.elem.decode(d, e); err != nil {
			return err
		}
		m.SetMapIndex(k, e)
	}
	v.Set(m)
	return nil
}

// message reads one message — name, then length-prefixed body — and
// returns it as a value of its registered type, or the zero Value for a
// nil message.
func (d *decoder) message() (reflect.Value, error) {
	n, err := d.count(1)
	if err != nil {
		return reflect.Value{}, err
	}
	if n == 0 {
		return reflect.Value{}, nil
	}
	name := d.bytes(n)
	mt := lookupName(name)
	if mt == nil {
		return reflect.Value{}, fmt.Errorf("wire: decode: unregistered message type %q", name)
	}
	// The value, and its copy boxed as a wire.Message.
	if err := d.charge(2, mt.body.size); err != nil {
		return reflect.Value{}, err
	}
	v := reflect.New(mt.typ).Elem()
	if mt.body.kind == reflect.Struct {
		err = mt.body.decode(d, v)
	} else {
		var rest []byte
		if rest, err = d.enter(); err == nil {
			err = mt.body.decode(d, v)
			d.leave(rest)
		}
	}
	if err != nil {
		return reflect.Value{}, err
	}
	return v, nil
}
