package vsync

import (
	"sort"

	"hafw/internal/ids"
	"hafw/internal/ranges"
)

// idSet is a set of message IDs: per sender, the message numbers as
// ranges. Every sender numbers its messages with one counter, so a set
// that holds most of a sender's messages stays a range or two.
type idSet map[ids.EndpointID]*ranges.Set

// add inserts id and reports whether it was absent.
func (s idSet) add(id ids.MsgID) bool {
	r := s[id.Sender]
	if r == nil {
		r = &ranges.Set{}
		s[id.Sender] = r
	}
	return r.Add(id.Seq)
}

func (s idSet) has(id ids.MsgID) bool {
	r := s[id.Sender]
	return r != nil && r.Has(id.Seq)
}

// addSpans inserts every message the spans cover.
func (s idSet) addSpans(spans []SeqSpan) {
	for _, sp := range spans {
		r := s[sp.Sender]
		if r == nil {
			r = &ranges.Set{}
			s[sp.Sender] = r
		}
		r.AddRange(sp.Lo, sp.Hi)
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
		n += r.Len()
	}
	sort.Slice(senders, func(i, j int) bool { return senders[i].Less(senders[j]) })
	out := make([]SeqSpan, 0, n)
	for _, e := range senders {
		for _, x := range *s[e] {
			out = append(out, SeqSpan{Sender: e, Lo: x.Lo, Hi: x.Hi})
		}
	}
	return out
}
