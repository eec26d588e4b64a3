package vsync

import (
	"sort"

	"hafw/internal/ids"
)

// seqRanges is a set of sequence numbers kept as sorted, disjoint,
// non-adjacent closed ranges, so a dense set costs one range however
// large it grows.
type seqRanges []seqRange

type seqRange struct{ lo, hi uint64 }

// has reports whether s is in the set.
func (r seqRanges) has(s uint64) bool {
	i := sort.Search(len(r), func(i int) bool { return r[i].hi >= s })
	return i < len(r) && r[i].lo <= s
}

// add inserts s and reports whether it was absent.
func (r *seqRanges) add(s uint64) bool {
	if r.has(s) {
		return false
	}
	r.addRange(s, s)
	return true
}

// addRange inserts every value from lo to hi.
func (r *seqRanges) addRange(lo, hi uint64) {
	rs := *r
	n := len(rs)
	if n == 0 || lo > rs[n-1].hi+1 {
		*r = append(rs, seqRange{lo, hi})
		return
	}
	// rs[i:j] are the ranges that overlap lo..hi or touch it.
	i := sort.Search(n, func(i int) bool { return rs[i].hi+1 >= lo })
	j := i
	for j < n && rs[j].lo <= hi+1 {
		j++
	}
	if i == j {
		rs = append(rs, seqRange{})
		copy(rs[i+1:], rs[i:])
		rs[i] = seqRange{lo, hi}
		*r = rs
		return
	}
	rs[i] = seqRange{min(lo, rs[i].lo), max(hi, rs[j-1].hi)}
	*r = append(rs[:i+1], rs[j:]...)
}

// idSet is a set of message IDs: per sender, the message numbers as
// ranges. Every sender numbers its messages with one counter, so a set
// that holds most of a sender's messages stays a range or two.
type idSet map[ids.EndpointID]*seqRanges

// add inserts id and reports whether it was absent.
func (s idSet) add(id ids.MsgID) bool {
	r := s[id.Sender]
	if r == nil {
		r = &seqRanges{}
		s[id.Sender] = r
	}
	return r.add(id.Seq)
}

func (s idSet) has(id ids.MsgID) bool {
	r := s[id.Sender]
	return r != nil && r.has(id.Seq)
}

// addSpans inserts every message the spans cover.
func (s idSet) addSpans(spans []SeqSpan) {
	for _, sp := range spans {
		r := s[sp.Sender]
		if r == nil {
			r = &seqRanges{}
			s[sp.Sender] = r
		}
		r.addRange(sp.Lo, sp.Hi)
	}
}

// spans lists the set's ranges, senders in ascending order.
func (s idSet) spans() []SeqSpan {
	if len(s) == 0 {
		return nil
	}
	senders := make([]ids.EndpointID, 0, len(s))
	n := 0
	for e, r := range s {
		senders = append(senders, e)
		n += len(*r)
	}
	sort.Slice(senders, func(i, j int) bool { return senders[i].Less(senders[j]) })
	out := make([]SeqSpan, 0, n)
	for _, e := range senders {
		for _, x := range *s[e] {
			out = append(out, SeqSpan{Sender: e, Lo: x.lo, Hi: x.hi})
		}
	}
	return out
}
