package wire

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"hafw/internal/ids"
)

type testMsg struct {
	N    int
	Text string
	List []uint64
}

func (testMsg) WireName() string { return "wire.testMsg" }

type otherMsg struct{ X float64 }

func (otherMsg) WireName() string { return "wire.otherMsg" }

func init() {
	Register(testMsg{})
	Register(otherMsg{})
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	env := Envelope{
		From:    ids.ProcessEndpoint(1),
		To:      ids.ClientEndpoint(2),
		Payload: testMsg{N: 7, Text: "hello", List: []uint64{1, 2, 3}},
	}
	data, err := Encode(env)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.From != env.From || got.To != env.To {
		t.Errorf("addresses mangled: got %v->%v, want %v->%v", got.From, got.To, env.From, env.To)
	}
	m, ok := got.Payload.(testMsg)
	if !ok {
		t.Fatalf("payload type = %T, want testMsg", got.Payload)
	}
	if m.N != 7 || m.Text != "hello" || len(m.List) != 3 {
		t.Errorf("payload mangled: %+v", m)
	}
}

func TestEncodeNilPayload(t *testing.T) {
	if _, err := Encode(Envelope{}); err == nil {
		t.Fatal("Encode with nil payload should fail")
	}
}

type unregisteredMsg struct{} //nolint:hafw/wirecheck // fixture: must stay unregistered to exercise the Encode error path

func (unregisteredMsg) WireName() string { return "wire.unregistered" }

func TestEncodeUnregistered(t *testing.T) {
	_, err := Encode(Envelope{Payload: unregisteredMsg{}})
	if err == nil || !strings.Contains(err.Error(), "unregistered") {
		t.Fatalf("expected unregistered error, got %v", err)
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode([]byte("not gob")); err == nil {
		t.Fatal("Decode of garbage should fail")
	}
}

func TestRegisterIdempotent(t *testing.T) {
	Register(testMsg{}) // second registration must not panic
	if !Registered("wire.testMsg") {
		t.Error("testMsg should be registered")
	}
	if Registered("wire.never") {
		t.Error("unknown name should not be registered")
	}
}

func TestCloneIndependence(t *testing.T) {
	orig := testMsg{N: 1, List: []uint64{10, 20}}
	cloned, _, err := CloneEnvelope(Envelope{Payload: orig})
	if err != nil {
		t.Fatalf("CloneEnvelope: %v", err)
	}
	cm := cloned.Payload.(testMsg)
	cm.List[0] = 99
	if orig.List[0] != 10 {
		t.Error("CloneEnvelope must not share backing arrays with the original")
	}
}

// frames encodes each envelope with EncodeFrame and returns the stream of
// frames they make.
func frames(t *testing.T, envs ...Envelope) []byte {
	t.Helper()
	var stream []byte
	for _, env := range envs {
		f, err := EncodeFrame(env, 0)
		if err != nil {
			t.Fatalf("EncodeFrame: %v", err)
		}
		stream = append(stream, frameBytes(f)...)
		f.Release()
	}
	return stream
}

// frameBytes concatenates a frame's pieces.
func frameBytes(f *Frame) []byte {
	return bytes.Join(f.AppendTo(nil), nil)
}

func textEnv(text string) Envelope {
	return Envelope{From: ids.ProcessEndpoint(1), To: ids.ProcessEndpoint(2), Payload: testMsg{Text: text}}
}

func TestFrameRoundTrip(t *testing.T) {
	envs := []Envelope{textEnv("a"), textEnv(""), textEnv("third frame")}
	r := bytes.NewReader(frames(t, envs...))
	var buf []byte
	for i, want := range envs {
		data, err := ReadFrameInto(r, buf, 0)
		if err != nil {
			t.Fatalf("ReadFrameInto %d: %v", i, err)
		}
		buf = data
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("Decode %d: %v", i, err)
		}
		if got.Payload.(testMsg).Text != want.Payload.(testMsg).Text {
			t.Errorf("frame %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := ReadFrameInto(r, buf, 0); !errors.Is(err, io.EOF) {
		t.Errorf("exhausted reader should return io.EOF, got %v", err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	if _, err := EncodeFrame(textEnv(strings.Repeat("x", 64)), 32); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("EncodeFrame oversized: err = %v, want ErrFrameTooLarge", err)
	}
	// A corrupt header claiming a giant frame must be rejected before
	// allocation, with the typed error so transports can drop the
	// connection rather than the frame.
	hdr := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := ReadFrameInto(bytes.NewReader(hdr), nil, 0); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("ReadFrameInto oversized header: err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameLimit(t *testing.T) {
	framed := frames(t, textEnv(strings.Repeat("x", 1024)))
	size := len(framed) - FrameHeader

	if _, err := ReadFrameInto(bytes.NewReader(framed), nil, 512); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("limit below frame size: err = %v, want ErrFrameTooLarge", err)
	}
	if got, err := ReadFrameInto(bytes.NewReader(framed), nil, size); err != nil || len(got) != size {
		t.Errorf("limit at frame size: got %d bytes, err %v", len(got), err)
	}
	// Zero means the package default.
	if got, err := ReadFrameInto(bytes.NewReader(framed), nil, 0); err != nil || len(got) != size {
		t.Errorf("zero limit: got %d bytes, err %v", len(got), err)
	}
}

func TestEncodeFramePooled(t *testing.T) {
	env := Envelope{
		From:    ids.ProcessEndpoint(1),
		To:      ids.ClientEndpoint(2),
		Payload: testMsg{N: 42, Text: "pooled", List: []uint64{9}},
	}
	f, err := EncodeFrame(env, 0)
	if err != nil {
		t.Fatalf("EncodeFrame: %v", err)
	}
	plain, err := Encode(env)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if got := frameBytes(f); f.Len() != len(got) || !bytes.Equal(got[FrameHeader:], plain) {
		t.Error("EncodeFrame bytes differ from Encode")
	}
	f.Release()

	// A recycled frame must come back empty.
	f2, err := EncodeFrame(textEnv("x"), 0)
	if err != nil {
		t.Fatalf("EncodeFrame: %v", err)
	}
	want := frames(t, textEnv("x"))
	if got := frameBytes(f2); !bytes.Equal(got, want) {
		t.Errorf("recycled frame = %x, want %x", got, want)
	}
	f2.Release()

	// So must a recycled Encode buffer.
	c := getCoder()
	if len(c.e.b) != 0 || c.e.err != nil || len(c.d.b) != 0 {
		t.Errorf("pooled coder not reset: %d bytes, err %v", len(c.e.b), c.e.err)
	}
	putCoder(c)

	if _, err := EncodeFrame(Envelope{}, 0); err == nil {
		t.Error("EncodeFrame with nil payload should fail")
	}
	if _, err := EncodeFrame(Envelope{Payload: unregisteredMsg{}}, 0); err == nil {
		t.Error("EncodeFrame with unregistered payload should fail")
	}
}

func TestFrameTruncatedBody(t *testing.T) {
	framed := frames(t, textEnv("hello world"))
	trunc := framed[:len(framed)-3]
	if _, err := ReadFrameInto(bytes.NewReader(trunc), nil, 0); err == nil {
		t.Error("ReadFrameInto should fail on a truncated body")
	}
}

// TestFrameProperty round-trips random payloads through the framing layer.
func TestFrameProperty(t *testing.T) {
	f := func(text string) bool {
		f, err := EncodeFrame(textEnv(text), 0)
		if err != nil {
			return false
		}
		defer f.Release()
		data, err := ReadFrameInto(bytes.NewReader(frameBytes(f)), nil, 0)
		if err != nil {
			return false
		}
		got, err := Decode(data)
		return err == nil && got.Payload.(testMsg).Text == text
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEncodeProperty round-trips random message contents through the codec.
func TestEncodeProperty(t *testing.T) {
	f := func(n int, text string, list []uint64, from, to uint64) bool {
		env := Envelope{
			From:    ids.ProcessEndpoint(ids.ProcessID(from)),
			To:      ids.ClientEndpoint(ids.ClientID(to)),
			Payload: testMsg{N: n, Text: text, List: list},
		}
		data, err := Encode(env)
		if err != nil {
			return false
		}
		got, err := Decode(data)
		if err != nil {
			return false
		}
		m, ok := got.Payload.(testMsg)
		if !ok || m.N != n || m.Text != text || len(m.List) != len(list) {
			return false
		}
		for i := range list {
			if m.List[i] != list[i] {
				return false
			}
		}
		return got.From == env.From && got.To == env.To
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
