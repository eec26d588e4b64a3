package vsync

// ring is a FIFO queue in a circular buffer. Its storage doubles when it
// is full and is reused as entries leave from the front, so a queue whose
// length stays bounded stops allocating.
type ring[T any] struct {
	// buf holds the entries from head on, wrapping around; its length is
	// zero or a power of two.
	buf  []T
	head int
	n    int
}

// len returns the number of entries.
func (r *ring[T]) len() int { return r.n }

// at returns the i-th entry from the front, for 0 <= i < len.
func (r *ring[T]) at(i int) *T { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

// push appends v at the back.
func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// pop drops the front entry, clearing its slot so the ring holds no
// reference to what the entry carried. The ring must not be empty.
func (r *ring[T]) pop() {
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

// grow doubles the storage of a full ring, moving its entries to the
// front.
func (r *ring[T]) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]T, size)
	n := copy(buf, r.buf[r.head:])
	copy(buf[n:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}
