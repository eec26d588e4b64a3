package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"unsafe"
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
// A codec is compiled once per Go type, at Register time: compile reads
// the type by reflection once and records, for each type, the functions
// that encode and decode one value of its kind and, for each struct field,
// its offset. Encoding and decoding then read and write values through
// pointers at those offsets, with no reflect.Value per field, and keep no
// state between messages. Reflection stays only where the runtime builds
// the value: making slices and maps, and encoding maps.

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
	// decoding budget when values are allocated, and the stride of slice
	// elements.
	size int
	// enc appends the encoding of the value at p.
	enc func(c *codec, e *encoder, p unsafe.Pointer)
	// dec reads one value into the zero value at p.
	dec func(c *codec, d *decoder, p unsafe.Pointer) error
}

// field is one encoded struct field: its codec and its offset in the
// struct.
type field struct {
	off uintptr
	c   *codec
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
	case reflect.Bool:
		c.enc, c.dec = encBool, decBool
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		c.enc, c.dec = encInt, decInt
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		c.enc, c.dec = encUint, decUint
	case reflect.Float64:
		c.min = 8
		c.enc, c.dec = encFloat64, decFloat64
	case reflect.String:
		c.enc, c.dec = encString, decString
	case reflect.Slice:
		c.elem = compile(t.Elem(), cache)
		if c.elem.kind == reflect.Uint8 {
			c.enc, c.dec = encBytes, decBytes
		} else {
			c.enc, c.dec = encSlice, decSlice
		}
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
		c.enc, c.dec = encMap, decMap
	case reflect.Struct:
		// min stays 1, the length of an empty body: a sender that predates
		// every field sends one.
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() || f.Type.Kind() == reflect.Func || f.Type.Kind() == reflect.Chan {
				continue
			}
			c.fields = append(c.fields, field{off: f.Offset, c: compile(f.Type, cache)})
		}
		c.enc, c.dec = encStruct, decStruct
	case reflect.Interface:
		if t != messageType {
			panic(fmt.Sprintf("wire: interface type %s is not wire.Message", t))
		}
		c.enc, c.dec = encMessage, decMessage
	default:
		panic(fmt.Sprintf("wire: type %s (kind %s) cannot travel on the wire", t, c.kind))
	}
	return c
}

// iface is the memory layout of a non-empty interface value, such as a
// Message: the itab naming its dynamic type, then the data word. The data
// word points to the value, except for pointer-shaped types, whose value
// is the word itself.
type iface struct {
	tab  unsafe.Pointer
	data unsafe.Pointer
}

func unpack(m Message) iface { return *(*iface)(unsafe.Pointer(&m)) }

// sliceHeader is the memory layout of a slice value.
type sliceHeader struct {
	data     unsafe.Pointer
	len, cap int
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

//hafw:hotpath
func encBool(_ *codec, e *encoder, p unsafe.Pointer) {
	var b byte
	if *(*bool)(p) {
		b = 1
	}
	e.b = append(e.b, b)
}

// encInt writes a signed integer of any width, which its size tells.
//
//hafw:hotpath
func encInt(c *codec, e *encoder, p unsafe.Pointer) {
	var x int64
	switch c.size {
	case 1:
		x = int64(*(*int8)(p))
	case 2:
		x = int64(*(*int16)(p))
	case 4:
		x = int64(*(*int32)(p))
	default:
		x = *(*int64)(p)
	}
	e.b = binary.AppendVarint(e.b, x)
}

// encUint writes an unsigned integer of any width, which its size tells.
//
//hafw:hotpath
func encUint(c *codec, e *encoder, p unsafe.Pointer) {
	var x uint64
	switch c.size {
	case 1:
		x = uint64(*(*uint8)(p))
	case 2:
		x = uint64(*(*uint16)(p))
	case 4:
		x = uint64(*(*uint32)(p))
	default:
		x = *(*uint64)(p)
	}
	e.b = binary.AppendUvarint(e.b, x)
}

//hafw:hotpath
func encFloat64(_ *codec, e *encoder, p unsafe.Pointer) {
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(*(*float64)(p)))
}

//hafw:hotpath
func encString(_ *codec, e *encoder, p unsafe.Pointer) {
	s := *(*string)(p)
	e.b = append(binary.AppendUvarint(e.b, uint64(len(s))), s...)
}

// encBytes writes a slice of bytes. A frame encoder leaves one of at least
// OutOfLine bytes where it lies.
//
//hafw:hotpath
func encBytes(_ *codec, e *encoder, p unsafe.Pointer) {
	bs := *(*[]byte)(p)
	e.b = binary.AppendUvarint(e.b, uint64(len(bs)))
	if e.frame && len(bs) >= OutOfLine {
		e.segs = append(e.segs, segment{off: len(e.b), data: bs})
		return
	}
	e.b = append(e.b, bs...)
}

//hafw:hotpath
func encSlice(c *codec, e *encoder, p unsafe.Pointer) {
	s := (*sliceHeader)(p)
	e.b = binary.AppendUvarint(e.b, uint64(s.len))
	for i := 0; i < s.len; i++ {
		c.elem.enc(c.elem, e, unsafe.Add(s.data, i*c.elem.size))
	}
}

//hafw:hotpath
func encStruct(c *codec, e *encoder, p unsafe.Pointer) {
	at := e.open()
	for _, f := range c.fields {
		f.c.enc(f.c, e, unsafe.Add(p, f.off))
	}
	e.close(at)
}

func encMessage(_ *codec, e *encoder, p unsafe.Pointer) {
	e.message(*(*Message)(p))
}

// encMap writes a map's entries in ascending key order, so equal maps
// encode to equal bytes. Each entry is copied into addressable scratch
// values for the key and element codecs.
func encMap(c *codec, e *encoder, p unsafe.Pointer) {
	v := reflect.NewAt(c.typ, p).Elem()
	e.b = binary.AppendUvarint(e.b, uint64(v.Len()))
	if v.Len() == 0 {
		return
	}
	keys := v.MapKeys()
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	k := reflect.New(c.key.typ)
	x := reflect.New(c.elem.typ)
	for _, key := range keys {
		k.Elem().Set(key)
		x.Elem().Set(v.MapIndex(key))
		c.key.enc(c.key, e, k.UnsafePointer())
		c.elem.enc(c.elem, e, x.UnsafePointer())
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

// message writes one message — name, then length-prefixed body — or a
// zero name length for a nil message. It fails if m's type is not
// registered.
func (e *encoder) message(m Message) {
	i := unpack(m)
	if i.tab == nil {
		e.b = append(e.b, 0)
		return
	}
	mt := lookupTab(i.tab)
	if mt == nil {
		e.fail(fmt.Errorf("wire: encode: unregistered message type %T", m))
		return
	}
	e.b = binary.AppendUvarint(e.b, uint64(len(mt.name)))
	e.b = append(e.b, mt.name...)
	p := i.data
	if mt.direct {
		// The data word is the value: encode from a copy of it.
		w := new(unsafe.Pointer)
		*w = i.data
		p = unsafe.Pointer(w)
	}
	if mt.body.kind == reflect.Struct {
		mt.body.enc(mt.body, e, p) // a struct brings its own length
		return
	}
	at := e.open()
	mt.body.enc(mt.body, e, p)
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
// bytes in memory named in a dozen bytes on the wire. A decoded message is
// charged twice its size: it is allocated once and boxed as a
// wire.Message in that allocation, and the second charge is margin.
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

//hafw:hotpath
func decBool(_ *codec, d *decoder, p unsafe.Pointer) error {
	if len(d.b) == 0 || d.b[0] > 1 {
		return errTruncated
	}
	*(*bool)(p) = d.b[0] == 1
	d.b = d.b[1:]
	return nil
}

// decInt reads a signed integer of any width, failing on one its field
// cannot hold.
//
//hafw:hotpath
func decInt(c *codec, d *decoder, p unsafe.Pointer) error {
	x, n := binary.Varint(d.b)
	if n <= 0 {
		return errTruncated
	}
	d.b = d.b[n:]
	switch c.size {
	case 1:
		if int64(int8(x)) != x {
			return errOverflow
		}
		*(*int8)(p) = int8(x)
	case 2:
		if int64(int16(x)) != x {
			return errOverflow
		}
		*(*int16)(p) = int16(x)
	case 4:
		if int64(int32(x)) != x {
			return errOverflow
		}
		*(*int32)(p) = int32(x)
	default:
		*(*int64)(p) = x
	}
	return nil
}

// decUint reads an unsigned integer of any width, failing on one its field
// cannot hold.
//
//hafw:hotpath
func decUint(c *codec, d *decoder, p unsafe.Pointer) error {
	x, err := d.uvarint()
	if err != nil {
		return err
	}
	switch c.size {
	case 1:
		if uint64(uint8(x)) != x {
			return errOverflow
		}
		*(*uint8)(p) = uint8(x)
	case 2:
		if uint64(uint16(x)) != x {
			return errOverflow
		}
		*(*uint16)(p) = uint16(x)
	case 4:
		if uint64(uint32(x)) != x {
			return errOverflow
		}
		*(*uint32)(p) = uint32(x)
	default:
		*(*uint64)(p) = x
	}
	return nil
}

//hafw:hotpath
func decFloat64(_ *codec, d *decoder, p unsafe.Pointer) error {
	if len(d.b) < 8 {
		return errTruncated
	}
	*(*float64)(p) = math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return nil
}

//hafw:hotpath
func decString(_ *codec, d *decoder, p unsafe.Pointer) error {
	n, err := d.count(1)
	if err != nil {
		return err
	}
	if n > 0 {
		if err := d.charge(n, 1); err != nil {
			return err
		}
		*(*string)(p) = string(d.bytes(n))
	}
	return nil
}

// decBytes reads a slice of bytes into a copy; an empty one stays nil.
//
//hafw:hotpath
func decBytes(_ *codec, d *decoder, p unsafe.Pointer) error {
	n, err := d.count(1)
	if err != nil || n == 0 {
		return err
	}
	if err := d.charge(n, 1); err != nil {
		return err
	}
	*(*[]byte)(p) = append([]byte(nil), d.bytes(n)...)
	return nil
}

// decSlice reads a slice; an empty one stays nil.
func decSlice(c *codec, d *decoder, p unsafe.Pointer) error {
	n, err := d.count(c.elem.min)
	if err != nil || n == 0 {
		return err
	}
	if err := d.charge(n, c.elem.size); err != nil {
		return err
	}
	s := sliceHeader{data: reflect.MakeSlice(c.typ, n, n).UnsafePointer(), len: n, cap: n}
	for i := 0; i < n; i++ {
		if err := c.elem.dec(c.elem, d, unsafe.Add(s.data, i*c.elem.size)); err != nil {
			return err
		}
	}
	*(*sliceHeader)(p) = s
	return nil
}

// decStruct reads a struct's fields until its body ends. Fields past the
// end keep their zero value (the sender predates them); bytes past the
// last field are skipped (the sender has fields this binary does not).
//
//hafw:hotpath
func decStruct(c *codec, d *decoder, p unsafe.Pointer) error {
	rest, err := d.enter()
	if err != nil {
		return err
	}
	for _, f := range c.fields {
		if len(d.b) == 0 {
			break
		}
		if err := f.c.dec(f.c, d, unsafe.Add(p, f.off)); err != nil {
			return err
		}
	}
	d.leave(rest)
	return nil
}

func decMessage(_ *codec, d *decoder, p unsafe.Pointer) error {
	m, err := d.message()
	if err != nil {
		return err
	}
	*(*Message)(p) = m
	return nil
}

// decMap reads a map; an empty one stays nil.
func decMap(c *codec, d *decoder, p unsafe.Pointer) error {
	n, err := d.count(c.key.min + c.elem.min)
	if err != nil || n == 0 {
		return err
	}
	// A map's table holds about twice its entries' bytes.
	if err := d.charge(n, 2*(c.key.size+c.elem.size)); err != nil {
		return err
	}
	m := reflect.MakeMapWithSize(c.typ, n)
	k := reflect.New(c.key.typ)
	x := reflect.New(c.elem.typ)
	for i := 0; i < n; i++ {
		k.Elem().SetZero()
		x.Elem().SetZero()
		if err := c.key.dec(c.key, d, k.UnsafePointer()); err != nil {
			return err
		}
		if err := c.elem.dec(c.elem, d, x.UnsafePointer()); err != nil {
			return err
		}
		m.SetMapIndex(k.Elem(), x.Elem())
	}
	reflect.NewAt(c.typ, p).Elem().Set(m)
	return nil
}

// message reads one message — name, then length-prefixed body — and
// returns it, or nil for a nil message.
func (d *decoder) message() (Message, error) {
	n, err := d.count(1)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	name := d.bytes(n)
	mt := lookupName(name)
	if mt == nil {
		return nil, fmt.Errorf("wire: decode: unregistered message type %q", name)
	}
	if err := d.charge(2, mt.body.size); err != nil {
		return nil, err
	}
	p := reflect.New(mt.typ).UnsafePointer()
	if mt.body.kind == reflect.Struct {
		err = mt.body.dec(mt.body, d, p)
	} else {
		var rest []byte
		if rest, err = d.enter(); err == nil {
			err = mt.body.dec(mt.body, d, p)
			d.leave(rest)
		}
	}
	if err != nil {
		return nil, err
	}
	return mt.box(p), nil
}
