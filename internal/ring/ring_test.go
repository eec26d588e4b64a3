package ring

import "testing"

// TestFIFOAcrossGrowthAndWrap interleaves pushes and pops so the ring
// both wraps around its storage and doubles while wrapped, and checks
// every entry leaves in push order.
func TestFIFOAcrossGrowthAndWrap(t *testing.T) {
	var r Ring[int]
	next, want := 0, 0
	for _, step := range []struct{ push, pop int }{
		{5, 3}, {6, 2}, {20, 10}, {100, 90}, {1000, 1000}, {37, 0}, {0, 37},
	} {
		for i := 0; i < step.push; i++ {
			r.Push(next)
			next++
		}
		for i := 0; i < step.pop; i++ {
			if got := *r.At(0); got != want {
				t.Fatalf("At(0) = %d, want %d", got, want)
			}
			if got := r.Pop(); got != want {
				t.Fatalf("Pop = %d, want %d", got, want)
			}
			want++
		}
		if r.Len() != next-want {
			t.Fatalf("Len = %d, want %d", r.Len(), next-want)
		}
		for i := 0; i < r.Len(); i++ {
			if got := *r.At(i); got != want+i {
				t.Fatalf("At(%d) = %d, want %d", i, got, want+i)
			}
		}
	}
}

// TestPopClearsSlot checks a popped entry leaves no reference behind in
// the ring's storage.
func TestPopClearsSlot(t *testing.T) {
	var r Ring[*int]
	for i := 0; i < 3; i++ {
		v := i
		r.Push(&v)
	}
	r.Pop()
	r.Pop()
	for i, p := range r.buf {
		if p != nil && *p != 2 {
			t.Errorf("slot %d still holds popped entry %d", i, *p)
		}
	}
}

// TestBoundedRingStopsAllocating checks storage is reused once the ring
// has grown to its working size.
func TestBoundedRingStopsAllocating(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 100; i++ {
		r.Push(i)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		r.Push(0)
		r.Pop()
	})
	if allocs != 0 {
		t.Errorf("push/pop at a steady length allocates %v times", allocs)
	}
}

// TestPushEvictKeepsNewest checks a bounded ring keeps the newest max
// entries in order, reports each eviction, and never evicts when
// unbounded.
func TestPushEvictKeepsNewest(t *testing.T) {
	var r Ring[int]
	evicted := 0
	for i := 0; i < 10; i++ {
		if r.PushEvict(i, 3) {
			evicted++
		}
	}
	if evicted != 7 || r.Len() != 3 {
		t.Fatalf("evicted %d, Len %d; want 7, 3", evicted, r.Len())
	}
	if got := r.AppendTo(nil); len(got) != 3 || got[0] != 7 || got[1] != 8 || got[2] != 9 {
		t.Fatalf("retained %v, want [7 8 9]", got)
	}
	var u Ring[int]
	for i := 0; i < 100; i++ {
		if u.PushEvict(i, 0) {
			t.Fatalf("unbounded ring evicted at push %d", i)
		}
	}
	if u.Len() != 100 {
		t.Fatalf("unbounded Len = %d, want 100", u.Len())
	}
}

// TestEmptiedRingReleasesBurstStorage checks a ring that empties after a
// burst grew it past shrinkAbove slots gives its storage back and still
// works, while a small ring keeps its slots for reuse.
func TestEmptiedRingReleasesBurstStorage(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 5000; i++ {
		r.Push(i)
	}
	for i := 0; i < 4999; i++ {
		r.Pop()
	}
	if len(r.buf) <= shrinkAbove {
		t.Fatalf("storage %d slots released before the ring emptied", len(r.buf))
	}
	if got := r.Pop(); got != 4999 {
		t.Fatalf("last Pop = %d, want 4999", got)
	}
	if r.buf != nil {
		t.Fatalf("emptied ring still holds %d slots", len(r.buf))
	}
	r.Push(1)
	r.Push(2)
	if r.Pop() != 1 || r.Pop() != 2 || r.Len() != 0 {
		t.Fatal("ring is not FIFO after releasing its storage")
	}

	var small Ring[int]
	for i := 0; i < 100; i++ {
		small.Push(i)
	}
	for small.Len() > 0 {
		small.Pop()
	}
	if len(small.buf) != 128 {
		t.Fatalf("small emptied ring holds %d slots, want its 128 kept", len(small.buf))
	}
}
