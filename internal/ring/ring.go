// Package ring provides the one FIFO queue type of the stack: a circular
// buffer whose storage grows with the backlog. vsync keeps its
// retransmission histories, retained messages and event queue in it,
// memnet its per-endpoint delivery queues, and the trace recorder and the
// obs span tracer their bounded, oldest-evicting event logs.
//
// A Ring is not safe for concurrent use; its owner guards it.
package ring

// Ring is a FIFO queue in a circular buffer. Its storage doubles when it
// is full and is reused as entries leave from the front, so a queue whose
// length stays bounded stops allocating. A ring that empties while holding
// more than shrinkAbove slots gives its storage back, so a burst's backlog
// does not stay allocated for the life of a long-lived queue. The zero
// value is an empty ring that holds no storage.
type Ring[T any] struct {
	// buf holds the entries from head on, wrapping around; its length is
	// zero or a power of two.
	buf  []T
	head int
	n    int
}

// shrinkAbove is the most storage, in slots, that an emptied ring keeps. A
// small queue that empties and refills on every message keeps reusing its
// slots; only storage a burst grew past this is released.
const shrinkAbove = 1024

// Len returns the number of entries.
func (r *Ring[T]) Len() int { return r.n }

// At returns the i-th entry from the front, for 0 <= i < Len.
func (r *Ring[T]) At(i int) *T { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

// Push appends v at the back.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// PushEvict appends v at the back of a ring bounded to limit entries,
// first dropping the front entry if the ring already holds limit; it
// reports whether it dropped one. limit <= 0 means unbounded.
func (r *Ring[T]) PushEvict(v T, limit int) bool {
	evict := limit > 0 && r.n >= limit
	if evict {
		r.Pop()
	}
	r.Push(v)
	return evict
}

// Pop removes the front entry and returns it, clearing its slot so the
// ring holds no reference to what the entry carried. The ring must not be
// empty.
func (r *Ring[T]) Pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	if r.n == 0 && len(r.buf) > shrinkAbove {
		r.buf, r.head = nil, 0
	}
	return v
}

// AppendTo appends the entries to dst, front first, and returns the
// extended slice.
func (r *Ring[T]) AppendTo(dst []T) []T {
	for i := 0; i < r.n; i++ {
		dst = append(dst, *r.At(i))
	}
	return dst
}

// grow doubles the storage of a full ring, moving its entries to the
// front.
func (r *Ring[T]) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]T, size)
	n := copy(buf, r.buf[r.head:])
	copy(buf[n:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}
