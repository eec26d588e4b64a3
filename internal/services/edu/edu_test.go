package edu

import (
	"sync"
	"testing"

	"hafw/internal/core"
	"hafw/internal/ids"
	"hafw/internal/wire"
)

type fakeResponder struct {
	mu     sync.Mutex
	bodies []wire.Message
}

func (r *fakeResponder) Send(body wire.Message) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bodies = append(r.bodies, body)
	return true
}
func (r *fakeResponder) Stream(next func() (wire.Message, bool)) int {
	n := 0
	for {
		m, ok := next()
		if !ok || !r.Send(m) {
			return n
		}
		n++
	}
}

func (r *fakeResponder) Client() ids.ClientID   { return 1 }
func (r *fakeResponder) Session() ids.SessionID { return 1 }
func (r *fakeResponder) all() []wire.Message {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]wire.Message(nil), r.bodies...)
}
func (r *fakeResponder) last() wire.Message {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.bodies) == 0 {
		return nil
	}
	return r.bodies[len(r.bodies)-1]
}

func newLesson(t *testing.T) (*Topic, *session, *fakeResponder) {
	t.Helper()
	topic := GenerateTopic("algebra", 12)
	s := New(topic).NewSession("algebra", 1, 1).(*session)
	r := &fakeResponder{}
	s.Activate(r)
	return topic, s, r
}

func TestGenerateTopicDeterministic(t *testing.T) {
	a := GenerateTopic("t", 12)
	b := GenerateTopic("t", 12)
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for i := 0; i < a.Len(); i++ {
		oa, _ := a.Object(i)
		ob, _ := b.Object(i)
		if oa.ID != ob.ID || oa.Kind != ob.Kind || oa.Title != ob.Title || oa.Body != ob.Body {
			t.Fatalf("object %d differs", i)
		}
	}
}

func TestTopicHasQuizzesAndRemedials(t *testing.T) {
	topic := GenerateTopic("t", 12)
	quizzes, remedials := 0, 0
	for i := 0; i < topic.Len(); i++ {
		o, _ := topic.Object(i)
		switch o.Kind {
		case KindQuiz:
			quizzes++
			if _, ok := topic.Correct(o.ID); !ok {
				t.Errorf("quiz %d has no answer key", o.ID)
			}
		case KindRemedial:
			remedials++
		}
	}
	if quizzes == 0 || remedials != quizzes {
		t.Fatalf("quizzes=%d remedials=%d", quizzes, remedials)
	}
}

func TestObjectOutOfRange(t *testing.T) {
	topic := GenerateTopic("t", 6)
	if _, ok := topic.Object(-1); ok {
		t.Error("negative ID must fail")
	}
	if _, ok := topic.Object(topic.Len()); ok {
		t.Error("past-end ID must fail")
	}
}

func TestNextWalksSyllabusSkippingRemedials(t *testing.T) {
	topic, s, r := newLesson(t)
	for i := 0; i < topic.Len()+2; i++ {
		s.ApplyUpdate(Next{})
	}
	var kinds []ObjectKind
	done := 0
	for _, b := range r.all() {
		switch m := b.(type) {
		case Content:
			kinds = append(kinds, m.Object.Kind)
		case Done:
			done++
		}
	}
	if done == 0 {
		t.Fatal("syllabus never finished")
	}
	for _, k := range kinds {
		if k == KindRemedial {
			t.Fatal("remedial shown without a failed quiz")
		}
	}
}

func TestFailedQuizTriggersRemedial(t *testing.T) {
	topic, s, r := newLesson(t)
	// Walk to the first quiz.
	var quiz Object
	for {
		s.ApplyUpdate(Next{})
		last := r.last()
		c, ok := last.(Content)
		if !ok {
			t.Fatal("expected content")
		}
		if c.Object.Kind == KindQuiz {
			quiz = c.Object
			break
		}
	}
	correct, _ := topic.Correct(quiz.ID)
	wrong := (correct + 1) % len(quiz.Options)
	s.ApplyUpdate(Answer{Quiz: quiz.ID, Choice: wrong})
	res, ok := r.last().(QuizResult)
	if !ok || res.Correct {
		t.Fatalf("expected incorrect QuizResult, got %+v", r.last())
	}
	// The next step must be the remedial explanation.
	s.ApplyUpdate(Next{})
	c, ok := r.last().(Content)
	if !ok || c.Object.Kind != KindRemedial {
		t.Fatalf("expected remedial after failed quiz, got %+v", r.last())
	}
}

func TestCorrectAnswerSkipsRemedial(t *testing.T) {
	topic, s, r := newLesson(t)
	var quiz Object
	for {
		s.ApplyUpdate(Next{})
		c := r.last().(Content)
		if c.Object.Kind == KindQuiz {
			quiz = c.Object
			break
		}
	}
	correct, _ := topic.Correct(quiz.ID)
	s.ApplyUpdate(Answer{Quiz: quiz.ID, Choice: correct})
	res := r.last().(QuizResult)
	if !res.Correct || res.Grade != 100 {
		t.Fatalf("result = %+v", res)
	}
	s.ApplyUpdate(Next{})
	c := r.last().(Content)
	if c.Object.Kind == KindRemedial {
		t.Fatal("remedial shown despite correct answer")
	}
}

func TestOpenFollowsHyperlink(t *testing.T) {
	_, s, r := newLesson(t)
	s.ApplyUpdate(Open{ID: 3})
	c, ok := r.last().(Content)
	if !ok || c.Object.ID != 3 {
		t.Fatalf("Open(3) delivered %+v", r.last())
	}
	n := len(r.all())
	s.ApplyUpdate(Open{ID: 9999})
	if len(r.all()) != n {
		t.Fatal("invalid Open must be ignored")
	}
}

func TestBackupDoesNotRespond(t *testing.T) {
	topic := GenerateTopic("t", 6)
	s := New(topic).NewSession("t", 1, 1).(*session)
	// Never activated: a backup replica.
	s.ApplyUpdate(Next{})
	cursor, _ := s.Progress()
	if cursor != 1 {
		t.Fatalf("backup must still apply updates, cursor = %d", cursor)
	}
}

func TestSnapshotRestore(t *testing.T) {
	_, s, _ := newLesson(t)
	s.ApplyUpdate(Next{})
	s.ApplyUpdate(Next{})
	blob := s.Snapshot()

	s2 := New(GenerateTopic("algebra", 12)).NewSession("algebra", 2, 2).(*session)
	s2.Restore(blob)
	c1, _ := s.Progress()
	c2, _ := s2.Progress()
	if c1 != c2 {
		t.Fatalf("restored cursor %d != %d", c2, c1)
	}
	s2.Restore(nil)         // ignored
	s2.Restore([]byte("x")) // ignored
	if c3, _ := s2.Progress(); c3 != c1 {
		t.Fatal("bad restores must not clobber state")
	}
}

func TestSyncAdvancesOnly(t *testing.T) {
	_, s, _ := newLesson(t)
	s.ApplyUpdate(Next{})
	s.ApplyUpdate(Next{})
	s.ApplyUpdate(Next{})
	blob := s.Snapshot()

	b := New(GenerateTopic("algebra", 12)).NewSession("algebra", 2, 2).(*session)
	b.Sync(blob)
	if c, _ := b.Progress(); c != 3 {
		t.Fatalf("sync cursor = %d, want 3", c)
	}
	b.Sync(core.EncodeContext(lessonContext{Cursor: 1, NeedRemedial: -1}))
	if c, _ := b.Progress(); c != 3 {
		t.Fatal("sync must not move backwards")
	}
}

func TestDeactivateStopsResponses(t *testing.T) {
	_, s, r := newLesson(t)
	s.Deactivate()
	n := len(r.all())
	s.ApplyUpdate(Next{})
	if len(r.all()) != n {
		t.Fatal("deactivated replica responded")
	}
}

func TestGradeAccounting(t *testing.T) {
	topic, s, r := newLesson(t)
	var quizzes []Object
	for i := 0; i < topic.Len(); i++ {
		o, _ := topic.Object(i)
		if o.Kind == KindQuiz {
			quizzes = append(quizzes, o)
		}
	}
	if len(quizzes) < 2 {
		t.Skip("topic too small")
	}
	c0, _ := topic.Correct(quizzes[0].ID)
	s.ApplyUpdate(Answer{Quiz: quizzes[0].ID, Choice: c0})
	c1, _ := topic.Correct(quizzes[1].ID)
	s.ApplyUpdate(Answer{Quiz: quizzes[1].ID, Choice: (c1 + 1) % 4})
	res := r.last().(QuizResult)
	if res.Grade != 50 {
		t.Fatalf("grade = %d, want 50", res.Grade)
	}
}

func TestServiceInterface(t *testing.T) {
	var _ core.Service = New(GenerateTopic("t", 3))
	if New(GenerateTopic("t", 3)).Topic().Len() == 0 {
		t.Error("topic empty")
	}
}
