package ranges

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// model is the reference a Set is checked against: a plain map.
type model map[uint64]bool

func (m model) addRange(lo, hi uint64) uint64 {
	var added uint64
	for v := lo; v <= hi; v++ {
		if !m[v] {
			m[v] = true
			added++
		}
		if v == hi {
			break
		}
	}
	return added
}

func (m model) set() Set {
	var s Set
	for v := range m {
		s.Add(v)
	}
	return s
}

// checkCanonical fails unless s's ranges are well formed, sorted,
// disjoint and non-adjacent, and hold exactly the model's values.
func checkCanonical(t *testing.T, s Set, m model) {
	t.Helper()
	n := uint64(0)
	for i, r := range s {
		if r.Lo > r.Hi {
			t.Fatalf("range %d of %v is empty", i, s)
		}
		if i > 0 && touches(s[i-1].Hi, r.Lo) {
			t.Fatalf("ranges %d and %d of %v overlap or touch", i-1, i, s)
		}
		n += r.Hi - r.Lo + 1
		for v := r.Lo; ; v++ {
			if !m[v] {
				t.Fatalf("%v holds %d, the model does not", s, v)
			}
			if v == r.Hi {
				break
			}
		}
	}
	if n != uint64(len(m)) {
		t.Fatalf("%v holds %d values, the model %d", s, n, len(m))
	}
}

// TestSetMatchesASet checks the set against a plain set under random
// insertions of values and ranges, and that a dense set collapses to one
// range.
func TestSetMatchesASet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		var s Set
		want := make(model)
		for i := 0; i < 100; i++ {
			v := 1 + uint64(rng.Intn(60))
			if i%4 == 3 {
				hi := v + uint64(rng.Intn(5))
				if got, w := s.AddRange(v, hi), want.addRange(v, hi); got != w {
					t.Fatalf("round %d: AddRange(%d, %d) = %d new values, want %d", round, v, hi, got, w)
				}
				continue
			}
			if added := s.Add(v); added == want[v] {
				t.Fatalf("round %d: Add(%d) = %v with the value present=%v", round, v, added, want[v])
			}
			want[v] = true
		}
		for v := uint64(0); v < 70; v++ {
			if s.Has(v) != want[v] {
				t.Fatalf("round %d: Has(%d) = %v, want %v", round, v, s.Has(v), want[v])
			}
		}
		checkCanonical(t, s, want)
	}
	var s Set
	for _, v := range rng.Perm(1000) {
		s.Add(uint64(v) + 1)
	}
	if s.Len() != 1 || s[0] != (Range{1, 1000}) {
		t.Fatalf("dense set = %v, want one range 1..1000", s)
	}
}

// TestSetOperationsMatchModel drives sets through random Add, AddRange
// and AddSorted calls, inserting out of order and filling the gaps
// between ranges so neighbours merge, and checks every query and the set
// operations against the map model after each step.
func TestSetOperationsMatchModel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 300; round++ {
		span := 8 + rng.Intn(120)
		var a, b Set
		ma, mb := make(model), make(model)
		for i := 0; i < 40; i++ {
			s, m := &a, ma
			if rng.Intn(2) == 0 {
				s, m = &b, mb
			}
			lo := uint64(rng.Intn(span))
			switch rng.Intn(4) {
			case 0:
				if got, w := s.Add(lo), !m[lo]; got != w {
					t.Fatalf("round %d: Add(%d) = %v, want %v", round, lo, got, w)
				}
				m[lo] = true
			case 1:
				hi := lo + uint64(rng.Intn(10))
				if got, w := s.AddRange(lo, hi), m.addRange(lo, hi); got != w {
					t.Fatalf("round %d: AddRange(%d, %d) = %d, want %d", round, lo, hi, got, w)
				}
			case 2:
				// Fill the hole after the first range, merging it with
				// its neighbour.
				if len(*s) >= 2 {
					hlo, hhi := (*s)[0].Hi+1, (*s)[1].Lo-1
					if got, w := s.AddRange(hlo, hhi), m.addRange(hlo, hhi); got != w {
						t.Fatalf("round %d: AddRange(%d, %d) filling a hole = %d, want %d", round, hlo, hhi, got, w)
					}
				}
			case 3:
				vs := make([]uint64, rng.Intn(12))
				for k := range vs {
					vs[k] = uint64(rng.Intn(span))
				}
				sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
				if rng.Intn(4) == 0 {
					rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
				}
				var w uint64
				for _, v := range vs {
					w += m.addRange(v, v)
				}
				if got := AddSorted(s, vs); got != w {
					t.Fatalf("round %d: AddSorted(%v) = %d, want %d", round, vs, got, w)
				}
			}
			checkCanonical(t, a, ma)
			checkCanonical(t, b, mb)
		}
		for v := uint64(0); v < uint64(span)+12; v++ {
			if a.Has(v) != ma[v] {
				t.Fatalf("round %d: Has(%d) = %v, want %v", round, v, a.Has(v), ma[v])
			}
		}
		union, inter, diff := make(model), make(model), make(model)
		for v := range ma {
			union[v] = true
			if mb[v] {
				inter[v] = true
			} else {
				diff[v] = true
			}
		}
		for v := range mb {
			union[v] = true
		}
		checkCanonical(t, Union(a, b), union)
		checkCanonical(t, Intersect(a, b), inter)
		checkCanonical(t, Subtract(a, b), diff)
		vals := Values[uint64](a)
		if len(vals) != len(ma) || !sort.SliceIsSorted(vals, func(i, j int) bool { return vals[i] < vals[j] }) {
			t.Fatalf("round %d: Values = %v, want the %d model values ascending", round, vals, len(ma))
		}
	}
}

// TestSetAtTheTopOfTheRange checks that ranges ending at the largest
// uint64 merge and count without overflowing.
func TestSetAtTheTopOfTheRange(t *testing.T) {
	const top = math.MaxUint64
	var s Set
	if n := s.AddRange(top-3, top); n != 4 {
		t.Fatalf("AddRange(top-3, top) = %d, want 4", n)
	}
	if n := s.AddRange(top-1, top); n != 0 || s.Len() != 1 {
		t.Fatalf("re-adding the top = %d new over %v, want 0 over one range", n, s)
	}
	s.Add(top - 5)
	if n := s.AddRange(top-4, top-4); n != 1 || s.Len() != 1 || s[0] != (Range{top - 5, top}) {
		t.Fatalf("filling top-4 = %d over %v, want 1 over one range", n, s)
	}
	if got := Subtract(Set{{0, top}}, s); len(got) != 1 || got[0] != (Range{0, top - 6}) {
		t.Fatalf("Subtract from everything = %v", got)
	}
	if got := Union(Set{{0, top - 6}}, s); len(got) != 1 || got[0] != (Range{0, top}) {
		t.Fatalf("Union up to the top = %v", got)
	}
	if got := AddSorted(&s, []uint64{top - 7, top - 6, top}); got != 2 || s.Len() != 1 {
		t.Fatalf("AddSorted up to the top = %d over %v", got, s)
	}
}

// FuzzSetMatchesMap reads the input as a stream of operations on two sets
// and checks the sets, their queries and the set operations against the
// map model. Values land near zero or near the largest uint64, so both
// ends of the domain are exercised.
func FuzzSetMatchesMap(f *testing.F) {
	f.Add([]byte{0, 5, 0, 1, 9, 3, 2, 6, 0, 0, 4, 1})
	f.Add([]byte{0x80, 1, 2, 0x81, 3, 250, 0x82, 255, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		sets := [2]Set{}
		models := [2]model{{}, {}}
		for len(data) >= 3 {
			op, x, w := data[0], uint64(data[1]), uint64(data[2]%16)
			data = data[3:]
			if op&0x80 != 0 {
				x = math.MaxUint64 - x
			}
			k := int(op>>6) & 1
			lo, hi := x, x+w
			if hi < lo {
				hi = math.MaxUint64
			}
			switch op % 3 {
			case 0:
				if got, want := sets[k].Add(x), !models[k][x]; got != want {
					t.Fatalf("Add(%d) = %v, want %v", x, got, want)
				}
				models[k][x] = true
			case 1:
				if got, want := sets[k].AddRange(lo, hi), models[k].addRange(lo, hi); got != want {
					t.Fatalf("AddRange(%d, %d) = %d, want %d", lo, hi, got, want)
				}
			case 2:
				if got := sets[k].Has(x); got != models[k][x] {
					t.Fatalf("Has(%d) = %v, want %v", x, got, models[k][x])
				}
			}
		}
		for k := range sets {
			checkCanonical(t, sets[k], models[k])
			if got := models[k].set(); !equal(got, sets[k]) {
				t.Fatalf("set %v, built value by value %v", sets[k], got)
			}
		}
		union, inter, diff := model{}, model{}, model{}
		for v := range models[0] {
			union[v] = true
			if models[1][v] {
				inter[v] = true
			} else {
				diff[v] = true
			}
		}
		for v := range models[1] {
			union[v] = true
		}
		checkCanonical(t, Union(sets[0], sets[1]), union)
		checkCanonical(t, Intersect(sets[0], sets[1]), inter)
		checkCanonical(t, Subtract(sets[0], sets[1]), diff)
	})
}

func equal(a, b Set) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
