// Package wire defines the on-the-wire representation shared by all
// transports: the Envelope carrying one protocol message between two
// endpoints, a registry of concrete message types, and the binary codec
// (codec.go) that every transport, the in-memory clone and the flush
// state share, framed with a length prefix for stream transports.
//
// Every protocol layer (failure detection, membership, virtual synchrony,
// framework) defines its message structs in its own package and registers
// them with Register at init time. The registry keeps encoding symmetric
// between the in-memory transport (which clones payloads through the codec
// to guarantee value semantics) and the TCP transport (which sends real
// bytes).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"

	"hafw/internal/ids"
)

// Message is implemented by every protocol payload that can travel in an
// Envelope. WireName must return a stable, unique name for the concrete
// type; it names the type on the wire so that independently compiled
// binaries interoperate.
type Message interface {
	WireName() string
}

// Envelope is one point-to-point datagram: a payload plus its source and
// destination endpoints. Transports deliver envelopes at-most-once,
// unordered, and without authentication — all reliability is built above.
type Envelope struct {
	// From is the sending endpoint.
	From ids.EndpointID
	// To is the destination endpoint.
	To ids.EndpointID
	// Payload is the protocol message. It must have been registered.
	Payload Message
}

// TraceContext identifies a position in a cross-node causal trace. It is
// carried as an append-only field on protocol messages so that a client
// request, the view change it survives, and the new primary's response can
// be stitched into one timeline by the observability layer. A zero
// TraceContext means "untraced"; layers propagate it verbatim and never
// branch replicated behavior on it.
type TraceContext struct {
	// TraceID groups every span of one causal chain.
	TraceID uint64
	// SpanID identifies the sender's current span.
	SpanID uint64
	// ParentID identifies the span that caused SpanID (zero at the root).
	ParentID uint64
}

// IsZero reports whether tc carries no trace.
func (tc TraceContext) IsZero() bool {
	return tc.TraceID == 0 && tc.SpanID == 0 && tc.ParentID == 0
}

// msgType is one registered message type and its compiled codec.
type msgType struct {
	name string
	typ  reflect.Type
	body *codec
	// tab is the type's itab as a Message: an interface value holding the
	// type carries it, so the encoder looks the type up by it and the
	// decoder builds a Message from it.
	tab unsafe.Pointer
	// direct marks a pointer-shaped type, whose value an interface holds
	// in its data word instead of pointing to it.
	direct bool
}

// box returns the decoded value at p as a Message. Most types are boxed in
// place: the interface points to p. A pointer-shaped type is boxed by
// reflection, which copies its value into the data word.
func (mt *msgType) box(p unsafe.Pointer) Message {
	if mt.direct {
		return reflect.NewAt(mt.typ, p).Elem().Interface().(Message)
	}
	var m Message
	*(*iface)(unsafe.Pointer(&m)) = iface{tab: mt.tab, data: p}
	return m
}

// registry maps wire names and itabs to registered message types. It is
// copied on write — registration happens at init time — so the lookups on
// every encode and decode take no lock.
type registry struct {
	byName map[string]*msgType
	byTab  map[unsafe.Pointer]*msgType
	codecs map[reflect.Type]*codec
}

var (
	registryMu sync.Mutex // serializes writers
	reg        atomic.Pointer[registry]
)

func init() {
	reg.Store(&registry{
		byName: map[string]*msgType{},
		byTab:  map[unsafe.Pointer]*msgType{},
		codecs: map[reflect.Type]*codec{},
	})
}

func lookupTab(tab unsafe.Pointer) *msgType { return reg.Load().byTab[tab] }

func lookupName(name []byte) *msgType { return reg.Load().byName[string(name)] }

// Register records a concrete message type for transmission and compiles
// its codec. It must be called (typically from an init function) for every
// type that will appear as an Envelope payload or in a wire.Message field.
// Registering the same type twice is a no-op; registering two distinct
// types with the same WireName panics, because decoding would be
// ambiguous, and so does a type with a field the codec cannot carry.
func Register(m Message) {
	name := m.WireName()
	t := reflect.TypeOf(m)
	registryMu.Lock()
	defer registryMu.Unlock()
	old := reg.Load()
	if mt := old.byName[name]; mt != nil {
		if mt.typ != t {
			panic(fmt.Sprintf("wire: %s and %s both register as %q", mt.typ, t, name))
		}
		return
	}
	next := &registry{byName: maps.Clone(old.byName), byTab: maps.Clone(old.byTab), codecs: maps.Clone(old.codecs)}
	mt := &msgType{
		name: name, typ: t, body: compile(t, next.codecs), tab: unpack(m).tab,
		// Only a pointer-shaped type's zero value boxes to a nil data word:
		// any other type's word points to the value.
		direct: unpack(reflect.Zero(t).Interface().(Message)).data == nil,
	}
	next.byName[name] = mt
	next.byTab[mt.tab] = mt
	reg.Store(next)
}

// Registered reports whether a message type with the given wire name has
// been registered.
func Registered(name string) bool {
	return reg.Load().byName[name] != nil
}

// frameFormat opens every encoded envelope. No gob stream can begin with
// it (gob's first byte is a length: below 0x80, or 0xf8 and up), so a frame
// from a binary that still spoke gob fails to decode at its first byte.
const frameFormat byte = 0xb1

// envelope appends env's encoding: the format byte, both addresses, then
// the payload message.
func (e *encoder) envelope(env Envelope) {
	if env.Payload == nil {
		e.fail(errors.New("wire: encode: nil payload"))
		return
	}
	e.b = append(e.b, frameFormat)
	e.b = appendEndpoint(e.b, env.From)
	e.b = appendEndpoint(e.b, env.To)
	e.message(env.Payload)
}

func appendEndpoint(b []byte, ep ids.EndpointID) []byte {
	return binary.AppendUvarint(append(b, byte(ep.Kind)), ep.ID)
}

// Encode serializes an envelope to bytes. The payload must be registered.
func Encode(env Envelope) ([]byte, error) {
	c := getCoder()
	defer putCoder(c)
	c.e.envelope(env)
	if c.e.err != nil {
		return nil, c.e.err
	}
	return append([]byte(nil), c.e.b...), nil
}

// Decode parses bytes produced by Encode back into an envelope. The
// envelope shares no memory with data, which the caller may reuse.
func Decode(data []byte) (Envelope, error) {
	c := getCoder()
	defer putCoder(c)
	return c.d.envelope(data)
}

// envelope decodes data, an encoded envelope, with d.
func (d *decoder) envelope(data []byte) (Envelope, error) {
	if len(data) == 0 || data[0] != frameFormat {
		return Envelope{}, errors.New("wire: decode: not a wire frame")
	}
	*d = newDecoder(data[1:])
	var env Envelope
	var err error
	if env.From, err = d.endpoint(); err != nil {
		return Envelope{}, err
	}
	if env.To, err = d.endpoint(); err != nil {
		return Envelope{}, err
	}
	if env.Payload, err = d.message(); err != nil {
		return Envelope{}, err
	}
	if env.Payload == nil {
		return Envelope{}, errors.New("wire: decode: nil payload")
	}
	if len(d.b) != 0 {
		return Envelope{}, fmt.Errorf("wire: decode: %d bytes after the payload", len(d.b))
	}
	return env, nil
}

func (d *decoder) endpoint() (ids.EndpointID, error) {
	if len(d.b) == 0 {
		return ids.EndpointID{}, errTruncated
	}
	kind := ids.EndpointKind(d.b[0])
	d.b = d.b[1:]
	id, err := d.uvarint()
	return ids.EndpointID{Kind: kind, ID: id}, err
}

// EncodeMessage serializes a bare message (no addresses) to bytes. It is
// used for opaque blobs that travel inside other messages, such as the
// virtual-synchrony flush state carried by membership commits.
func EncodeMessage(m Message) ([]byte, error) {
	return Encode(Envelope{Payload: m})
}

// DecodeMessage parses bytes produced by EncodeMessage.
func DecodeMessage(data []byte) (Message, error) {
	env, err := Decode(data)
	if err != nil {
		return nil, err
	}
	return env.Payload, nil
}

// MaxFrame is the largest frame EncodeFrame and ReadFrameInto accept. It
// protects stream transports from corrupt or hostile length prefixes.
const MaxFrame = 16 << 20 // 16 MiB

// ErrFrameTooLarge is wrapped by frame codec errors when an encoded frame
// (or a received length prefix) exceeds the configured maximum. A reader
// hitting it cannot resynchronize the stream — the length prefix itself is
// untrustworthy — so the connection must be dropped, not the frame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

// FrameHeader is the size of a frame's length prefix: a big-endian uint32
// counting the payload bytes that follow.
const FrameHeader = 4

// ReadFrameInto reads one frame written from an EncodeFrame Frame into
// buf's storage, grown only when the frame does not fit, so a reader that
// decodes each frame before the next (Decode copies out everything it
// keeps) reuses one buffer. A length prefix above max (clamped to
// MaxFrame; zero or negative means MaxFrame) fails with an error wrapping
// ErrFrameTooLarge before anything is allocated.
func ReadFrameInto(r io.Reader, buf []byte, max int) ([]byte, error) {
	if max <= 0 || max > MaxFrame {
		max = MaxFrame
	}
	var hdr [FrameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err // preserve io.EOF for clean shutdown detection
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > uint32(max) {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds max %d: %w", n, max, ErrFrameTooLarge)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	data := buf[:n]
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, fmt.Errorf("wire: read frame body: %w", err)
	}
	return data, nil
}

// maxPooledBuffer caps the capacity of buffers returned to the encode
// pools; occasional outliers above it are left to the garbage collector so
// one huge frame does not pin its allocation forever.
const maxPooledBuffer = 4 << 20

// coder is the scratch state of one Encode, Decode or CloneEnvelope. It is
// pooled: the encoder's buffer keeps the capacity its largest encoding
// needed, and neither the encoder nor the decoder, which every codec
// function is handed, is allocated per call.
type coder struct {
	e encoder
	d decoder
}

var coderPool = sync.Pool{New: func() any { return new(coder) }}

//hafw:hotpath
func getCoder() *coder {
	return coderPool.Get().(*coder)
}

// putCoder returns c to the pool, empty. The caller must not retain any
// slice aliasing its buffer.
//
//hafw:hotpath
func putCoder(c *coder) {
	c.e = encoder{b: c.e.b[:0]}
	if cap(c.e.b) > maxPooledBuffer {
		c.e.b = nil
	}
	c.d = decoder{}
	coderPool.Put(c)
}

// Frame is one envelope encoded for a stream transport: the 4-byte length
// prefix and the encoding, byte for byte what Encode returns. Every []byte
// field of at least OutOfLine bytes stays where the message holds it and
// is referenced, not copied, so the message's large byte slices must not
// change until the frame is released. Frames are pooled: the holder
// releases each exactly once.
type Frame struct {
	// e encoded the frame: e.b is the length prefix and the inline bytes,
	// e.segs the out-of-line ones.
	e encoder
	// n is the frame's size, length prefix and segments included.
	n int
}

var framePool = sync.Pool{New: func() any { return new(Frame) }}

// Len returns the frame's size in bytes, length prefix included.
func (f *Frame) Len() int { return f.n }

// AppendTo appends the frame's bytes to v in order, as slices for a
// vectored write: inline runs from the pooled buffer, large byte fields
// as the message holds them.
//
//hafw:hotpath
func (f *Frame) AppendTo(v [][]byte) [][]byte {
	at := 0
	for _, s := range f.e.segs {
		v = append(v, f.e.b[at:s.off], s.data)
		at = s.off
	}
	return append(v, f.e.b[at:])
}

// Release returns the frame to the pool, dropping its references to the
// message's bytes. Neither the frame nor a slice from AppendTo may be used
// after.
//
//hafw:hotpath
func (f *Frame) Release() {
	clear(f.e.segs)
	f.e.segs, f.e.err, f.n = f.e.segs[:0], nil, 0
	if cap(f.e.b) > maxPooledBuffer {
		f.e.b = nil
	}
	framePool.Put(f)
}

// EncodeFrame encodes env as one frame from the pool. An envelope whose
// encoding exceeds max (clamped like ReadFrameInto's), out-of-line bytes
// included, fails with an error wrapping ErrFrameTooLarge.
func EncodeFrame(env Envelope, max int) (*Frame, error) {
	if max <= 0 || max > MaxFrame {
		max = MaxFrame
	}
	f := framePool.Get().(*Frame)
	f.e.b, f.e.frame = append(f.e.b[:0], zeros[:FrameHeader]...), true
	f.e.envelope(env)
	if err := f.e.err; err != nil {
		f.Release()
		return nil, err
	}
	n := len(f.e.b) - FrameHeader
	for _, s := range f.e.segs {
		n += len(s.data)
	}
	if n > max {
		f.Release()
		return nil, fmt.Errorf("wire: encoded %s of %d bytes exceeds max frame %d: %w",
			env.Payload.WireName(), n, max, ErrFrameTooLarge)
	}
	binary.BigEndian.PutUint32(f.e.b, uint32(n))
	f.n = FrameHeader + n
	return f, nil
}

// CloneEnvelope deep-copies an envelope through the codec and reports its
// encoded size, which is exactly what a frame of it carries.
func CloneEnvelope(env Envelope) (Envelope, int, error) {
	c := getCoder()
	defer putCoder(c)
	c.e.envelope(env)
	if c.e.err != nil {
		return Envelope{}, 0, c.e.err
	}
	out, err := c.d.envelope(c.e.b)
	if err != nil {
		return Envelope{}, 0, err
	}
	return out, len(c.e.b), nil
}
