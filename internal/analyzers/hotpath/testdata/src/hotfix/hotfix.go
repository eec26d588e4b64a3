// Package hotfix exercises the loop-invariant buffer hoist fix.
package hotfix

//hafw:hotpath
func Fill(frames [][]byte) {
	for i := range frames {
		buf := make([]byte, 1024) // want `hot path allocates a fresh \[\]byte per call; reuse a buffer or a pooled one`
		frames[i] = buf[:0]
	}
}

// perChunk sizes the buffer from the loop variable: still a diagnostic,
// but no mechanical hoist is offered.
//
//hafw:hotpath
func perChunk(chunks [][]byte) {
	var n int
	for _, c := range chunks {
		buf := make([]byte, len(c)) // want `hot path allocates a fresh \[\]byte per call; reuse a buffer or a pooled one`
		n += copy(buf, c)
	}
	_ = n
}
