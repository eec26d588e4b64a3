package store

import (
	"bytes"
	"encoding/gob"

	"hafw/internal/wire"
)

// Decode reads one persisted value: a session context, log record or
// checkpoint. Current builds write them with wire.EncodeMessage; bytes
// that are not a wire frame (no gob stream starts with its format byte)
// are read as the gob that older builds wrote. Empty input, a value of
// another type and unreadable bytes return false.
func Decode[T wire.Message](b []byte) (T, bool) {
	var v T
	if len(b) == 0 {
		return v, false
	}
	if m, err := wire.DecodeMessage(b); err == nil {
		v, ok := m.(T)
		return v, ok
	}
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&v); err != nil {
		var zero T
		return zero, false
	}
	return v, true
}
