// Package hot exercises the same-package hotpath checks: per-site
// diagnostics inside //hafw:hotpath roots and the chain diagnostic when
// the allocation hides in a callee.
package hot

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// encodeGob is the allocating leaf; it is not itself a root, so it gets
// a fact but no diagnostic.
func encodeGob(v any) []byte {
	var buf bytes.Buffer
	_ = gob.NewEncoder(&buf).Encode(v)
	return buf.Bytes()
}

//hafw:hotpath
func Deliver(msgs [][]byte) {
	for _, m := range msgs {
		buf := make([]byte, 64) // want `hot path allocates a fresh \[\]byte per call; reuse a buffer or a pooled one`
		copy(buf, m)
	}
}

//hafw:hotpath
func Format(n int) string {
	return fmt.Sprintf("n=%d", n) // want `hot path formats with fmt\.Sprintf \(allocates and boxes arguments per call\)`
}

//hafw:hotpath
func Concat(a, b string) string {
	return a + b // want `hot path builds a string with \+ \(allocates per call\); use a reused buffer or precompute`
}

//hafw:hotpath
func Publish(v any) []byte { // want `Publish is marked //hafw:hotpath but calls encodeGob, which encodes with encoding/gob \(reflection and buffer allocation per call\)`
	return encodeGob(v)
}

//hafw:hotpath
func MakeMaps(keys []string) {
	for range keys {
		m := make(map[string]int) // want `hot path allocates a map inside a loop; hoist it out or index by a fixed-size array`
		_ = m
	}
}

//hafw:hotpath
func LiteralMaps(keys []string) {
	for _, k := range keys {
		m := map[string]int{} // want `hot path allocates a map literal inside a loop; hoist it out or index by a fixed-size array`
		m[k] = 1
	}
}

//hafw:hotpath
func Box(n int) any {
	return any(n) // want `hot path boxes a value into an interface \(allocates per call\); keep concrete types or pass pointers`
}

// Clean stays on the pool and copies in place: no diagnostics.
//
//hafw:hotpath
func Clean(dst, src []byte) int {
	return copy(dst, src)
}

// cold is unannotated: it may allocate freely.
func cold(n int) string {
	return fmt.Sprintf("cold=%d", n)
}
