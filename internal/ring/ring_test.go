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
