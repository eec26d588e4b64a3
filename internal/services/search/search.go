// Package search implements the paper's third example service: a search
// service that lets a client make successively narrower queries by
// restricting each query to the result set of earlier ones ("select from
// the results of query 3 where also publication date is after 1995", "find
// the intersection of the results of query 4 with query 7"). The session
// context is the list of previous result sets.
package search

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"hafw/internal/core"
	"hafw/internal/ids"
	"hafw/internal/wire"
)

// Doc is one corpus document.
type Doc struct {
	// ID identifies the document.
	ID int
	// Year is the publication year.
	Year int
	// Words is the indexed token set.
	Words []string
}

// Corpus is a content unit: a synthetic, deterministically generated
// document collection with an inverted index.
type Corpus struct {
	// Name is the content unit name.
	Name ids.UnitName
	docs []Doc
	// index maps word → sorted doc IDs.
	index map[string][]int
}

// vocabulary is the synthetic corpus vocabulary.
var vocabulary = []string{
	"replication", "availability", "group", "communication", "membership",
	"primary", "backup", "session", "context", "partition", "consensus",
	"virtual", "synchrony", "multicast", "failure", "video", "ordering",
}

// GenerateCorpus builds a deterministic corpus of n documents.
func GenerateCorpus(name ids.UnitName, n int) *Corpus {
	c := &Corpus{Name: name, index: make(map[string][]int)}
	for i := 0; i < n; i++ {
		doc := Doc{ID: i, Year: 1985 + (i*13)%30}
		for j := 0; j < 4; j++ {
			w := vocabulary[(i*(j+3)+j*7)%len(vocabulary)]
			doc.Words = append(doc.Words, w)
		}
		c.docs = append(c.docs, doc)
		seen := map[string]bool{}
		for _, w := range doc.Words {
			if !seen[w] {
				seen[w] = true
				c.index[w] = append(c.index[w], i)
			}
		}
	}
	return c
}

// Len returns the document count.
func (c *Corpus) Len() int { return len(c.docs) }

// Doc returns one document.
func (c *Corpus) Doc(id int) (Doc, bool) {
	if id < 0 || id >= len(c.docs) {
		return Doc{}, false
	}
	return c.docs[id], true
}

// Lookup returns the sorted IDs of documents containing the word.
func (c *Corpus) Lookup(word string) []int {
	return append([]int(nil), c.index[strings.ToLower(word)]...)
}

// --- client requests ---

// Query runs a search, optionally restricted to an earlier result set.
type Query struct {
	// Word is the search term. Empty matches every document (useful as a
	// base for year filters).
	Word string
	// AfterYear, if non-zero, keeps only documents published after it.
	AfterYear int
	// Base is the 1-based index of the earlier result set to search
	// within; 0 searches the whole corpus.
	Base int
}

// WireName implements wire.Message.
func (Query) WireName() string { return "search.Query" }

// Intersect combines two earlier result sets.
type Intersect struct {
	// A and B are 1-based result set indexes.
	A, B int
}

// WireName implements wire.Message.
func (Intersect) WireName() string { return "search.Intersect" }

// --- response ---

// ResultSet reports one query's results. It travels server → client;
// the example client consumes it.
//
//hafw:handledby hafw/examples/search
type ResultSet struct {
	// Index is the 1-based position of this result set in the session
	// context (later queries can refine it).
	Index int
	// DocIDs are the matching documents, sorted.
	DocIDs []int
	// Err reports a bad request (unknown base set), empty on success.
	Err string
}

// WireName implements wire.Message.
func (ResultSet) WireName() string { return "search.ResultSet" }

func init() {
	wire.Register(Query{})
	wire.Register(Intersect{})
	wire.Register(ResultSet{})
	wire.Register(searchContext{})
}

// searchContext is the propagated session context: the history of result
// sets, never dispatched.
//
//hafw:handledby -
type searchContext struct {
	// Sets holds each query's result IDs, in query order.
	Sets [][]int
}

// WireName implements wire.Message.
func (searchContext) WireName() string { return "search.searchContext" }

// Service is the search provider for one corpus; it implements
// core.Service.
type Service struct {
	corpus *Corpus
}

// New creates the service.
func New(corpus *Corpus) *Service { return &Service{corpus: corpus} }

// Corpus returns the served corpus.
func (s *Service) Corpus() *Corpus { return s.corpus }

var _ core.Service = (*Service)(nil)

// NewSession implements core.Service.
func (s *Service) NewSession(unit ids.UnitName, sid ids.SessionID, client ids.ClientID) core.Session {
	return &session{corpus: s.corpus}
}

// session is one client's refinement history; it implements core.Session.
type session struct {
	corpus *Corpus

	mu     sync.Mutex
	ctx    searchContext
	active bool
	r      core.Responder
}

var _ core.Session = (*session)(nil)

// ApplyUpdate implements core.Session. Queries are deterministic functions
// of the corpus and the context, so primary and backups stay identical.
func (s *session) ApplyUpdate(body wire.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch m := body.(type) {
	case Query:
		s.runQueryLocked(m)
	case Intersect:
		s.runIntersectLocked(m)
	}
}

// baseSetLocked resolves a 1-based result set reference; base 0 is the
// whole corpus.
func (s *session) baseSetLocked(base int) ([]int, bool) {
	if base == 0 {
		all := make([]int, s.corpus.Len())
		for i := range all {
			all[i] = i
		}
		return all, true
	}
	if base < 1 || base > len(s.ctx.Sets) {
		return nil, false
	}
	return s.ctx.Sets[base-1], true
}

func (s *session) runQueryLocked(q Query) {
	base, ok := s.baseSetLocked(q.Base)
	if !ok {
		s.respondLocked(ResultSet{Err: fmt.Sprintf("unknown result set %d", q.Base)})
		return
	}
	var matched []int
	if q.Word != "" {
		matched = intersectSorted(base, s.corpus.Lookup(q.Word))
	} else {
		matched = append([]int(nil), base...)
	}
	if q.AfterYear != 0 {
		var filtered []int
		for _, id := range matched {
			if doc, ok := s.corpus.Doc(id); ok && doc.Year > q.AfterYear {
				filtered = append(filtered, id)
			}
		}
		matched = filtered
	}
	s.ctx.Sets = append(s.ctx.Sets, matched)
	s.respondLocked(ResultSet{Index: len(s.ctx.Sets), DocIDs: append([]int(nil), matched...)})
}

func (s *session) runIntersectLocked(m Intersect) {
	a, okA := s.baseSetLocked(m.A)
	b, okB := s.baseSetLocked(m.B)
	if !okA || !okB || m.A == 0 || m.B == 0 {
		s.respondLocked(ResultSet{Err: fmt.Sprintf("unknown result sets %d, %d", m.A, m.B)})
		return
	}
	res := intersectSorted(a, b)
	s.ctx.Sets = append(s.ctx.Sets, res)
	s.respondLocked(ResultSet{Index: len(s.ctx.Sets), DocIDs: append([]int(nil), res...)})
}

// intersectSorted intersects two sorted ID slices.
func intersectSorted(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func (s *session) respondLocked(body wire.Message) {
	if s.active && s.r != nil {
		s.r.Send(body)
	}
}

// Activate implements core.Session.
func (s *session) Activate(r core.Responder) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.active, s.r = true, r
}

// Deactivate implements core.Session.
func (s *session) Deactivate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.active, s.r = false, nil
}

// Close implements core.Session.
func (s *session) Close() { s.Deactivate() }

// Snapshot implements core.Session.
func (s *session) Snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return core.EncodeContext(s.ctx)
}

// Restore implements core.Session.
func (s *session) Restore(ctx []byte) {
	c, ok := core.DecodeContext[searchContext](ctx)
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ctx = c
}

// Sync implements core.Session: result sets are derived deterministically
// from totally ordered queries, so a backup's history is already exact;
// the propagated history only fills gaps for freshly drafted replicas.
func (s *session) Sync(ctx []byte) {
	c, ok := core.DecodeContext[searchContext](ctx)
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(c.Sets) > len(s.ctx.Sets) {
		s.ctx = c
	}
}

// Sets returns the number of result sets accumulated (testing hook).
func (s *session) Sets() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ctx.Sets)
}

// SetIDs returns a copy of one result set (testing hook).
func (s *session) SetIDs(i int) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 1 || i > len(s.ctx.Sets) {
		return nil
	}
	out := append([]int(nil), s.ctx.Sets[i-1]...)
	sort.Ints(out)
	return out
}
