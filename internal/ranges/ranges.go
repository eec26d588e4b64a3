// Package ranges provides the stack's one set of integers kept as ranges:
// sorted, disjoint, non-adjacent closed ranges, so a set that is dense
// between a few holes costs one range per hole however many values it
// holds. vsync keeps its per-sender message dedup in it, and the unit
// database its tombstones (the IDs of closed sessions, which a monotone
// counter hands out, so they are every ID up to the counter bar the live
// sessions).
//
// A Set is not safe for concurrent use; its owner guards it.
package ranges

import (
	"math"
	"sort"
)

// Set is a set of uint64 values as sorted, disjoint, non-adjacent closed
// ranges. Two sets hold the same values exactly when their ranges are
// equal. The zero value is the empty set.
type Set []Range

// Range is the closed range of values Lo..Hi, Lo <= Hi.
type Range struct{ Lo, Hi uint64 }

// Len returns the number of ranges.
func (s Set) Len() int { return len(s) }

// Has reports whether v is in the set.
func (s Set) Has(v uint64) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i].Hi >= v })
	return i < len(s) && s[i].Lo <= v
}

// Add inserts v and reports whether it was absent.
func (s *Set) Add(v uint64) bool {
	return s.AddRange(v, v) == 1
}

// AddRange inserts every value from lo to hi and returns how many of them
// were absent (modulo 2^64: adding every uint64 to the empty set returns
// 0). It does nothing when lo > hi.
func (s *Set) AddRange(lo, hi uint64) uint64 {
	if lo > hi {
		return 0
	}
	rs := *s
	n := len(rs)
	if n == 0 || !touches(rs[n-1].Hi, lo) {
		*s = append(rs, Range{lo, hi})
		return hi - lo + 1
	}
	// rs[i:j] are the ranges that overlap lo..hi or touch it.
	i := sort.Search(n, func(i int) bool { return touches(rs[i].Hi, lo) })
	j := i
	added := hi - lo + 1
	for j < n && touches(hi, rs[j].Lo) {
		if ol, oh := max(lo, rs[j].Lo), min(hi, rs[j].Hi); ol <= oh {
			added -= oh - ol + 1
		}
		j++
	}
	if i == j {
		rs = append(rs, Range{})
		copy(rs[i+1:], rs[i:])
		rs[i] = Range{lo, hi}
		*s = rs
		return added
	}
	rs[i] = Range{min(lo, rs[i].Lo), max(hi, rs[j-1].Hi)}
	*s = append(rs[:i+1], rs[j:]...)
	return added
}

// touches reports whether a range ending at hi overlaps or is adjacent to
// one starting at lo, that is hi+1 >= lo without overflow.
func touches(hi, lo uint64) bool {
	return hi == math.MaxUint64 || hi+1 >= lo
}

// Union returns the values in a or b.
func Union(a, b Set) Set {
	out := make(Set, 0, len(a)+len(b))
	for len(a) > 0 || len(b) > 0 {
		var r Range
		if len(b) == 0 || (len(a) > 0 && a[0].Lo <= b[0].Lo) {
			r, a = a[0], a[1:]
		} else {
			r, b = b[0], b[1:]
		}
		if n := len(out); n > 0 && touches(out[n-1].Hi, r.Lo) {
			out[n-1].Hi = max(out[n-1].Hi, r.Hi)
			continue
		}
		out = append(out, r)
	}
	return out
}

// Intersect returns the values in both a and b.
func Intersect(a, b Set) Set {
	var out Set
	for len(a) > 0 && len(b) > 0 {
		if lo, hi := max(a[0].Lo, b[0].Lo), min(a[0].Hi, b[0].Hi); lo <= hi {
			out = append(out, Range{lo, hi})
		}
		if a[0].Hi < b[0].Hi {
			a = a[1:]
		} else {
			b = b[1:]
		}
	}
	return out
}

// Subtract returns the values in a and not in b.
func Subtract(a, b Set) Set {
	var out Set
next:
	for _, r := range a {
		for len(b) > 0 && b[0].Hi < r.Lo {
			b = b[1:]
		}
		// Cut every range of b that overlaps r out of it, left to right.
		for k := 0; k < len(b) && b[k].Lo <= r.Hi; k++ {
			if b[k].Lo > r.Lo {
				out = append(out, Range{r.Lo, b[k].Lo - 1})
			}
			if b[k].Hi >= r.Hi {
				continue next
			}
			r.Lo = b[k].Hi + 1
		}
		out = append(out, r)
	}
	return out
}

// Values lists the set's values in ascending order, converted to T.
func Values[T ~uint64](s Set) []T {
	n := 0
	for _, r := range s {
		n += int(r.Hi - r.Lo + 1)
	}
	out := make([]T, 0, n)
	for _, r := range s {
		for v := r.Lo; ; v++ {
			out = append(out, T(v))
			if v == r.Hi {
				break
			}
		}
	}
	return out
}

// AddSorted inserts every value of vs, which should be ascending (other
// orders are correct, only slower): runs of consecutive values go in as
// one range each. It returns how many values were absent.
func AddSorted[T ~uint64](s *Set, vs []T) uint64 {
	var added uint64
	for i := 0; i < len(vs); {
		lo, hi := uint64(vs[i]), uint64(vs[i])
		for i++; i < len(vs) && (uint64(vs[i]) == hi || (hi < math.MaxUint64 && uint64(vs[i]) == hi+1)); i++ {
			hi = uint64(vs[i])
		}
		added += s.AddRange(lo, hi)
	}
	return added
}
