// Package edu implements the paper's second example service: a
// distance-education service. A topic (content unit) holds learning
// objects — lecture notes, animations, quiz questions; a session is one
// student studying the topic. The session context is the student's path
// and quiz performance, and the service adapts: a poor quiz grade routes
// the student through a remedial explanation before moving on ("the
// service may provide more detailed explanations if the last quiz grade is
// low").
package edu

import (
	"fmt"
	"sync"

	"hafw/internal/core"
	"hafw/internal/ids"
	"hafw/internal/wire"
)

// ObjectKind classifies a learning object.
type ObjectKind uint8

// Learning object kinds.
const (
	// KindNote is a lecture note.
	KindNote ObjectKind = iota + 1
	// KindAnimation is an interactive animation.
	KindAnimation
	// KindQuiz is a quiz question.
	KindQuiz
	// KindRemedial is a detailed explanation shown after a poor quiz
	// grade.
	KindRemedial
)

// String implements fmt.Stringer.
func (k ObjectKind) String() string {
	switch k {
	case KindNote:
		return "note"
	case KindAnimation:
		return "animation"
	case KindQuiz:
		return "quiz"
	case KindRemedial:
		return "remedial"
	default:
		return "?"
	}
}

// Object is one learning object.
type Object struct {
	// ID indexes the object within its topic.
	ID int
	// Kind classifies it.
	Kind ObjectKind
	// Title and Body are the content.
	Title, Body string
	// Options holds the quiz choices (quiz objects only).
	Options []string
	// correct is unexported on the wire: the answer key stays server-side.
}

// Topic is a content unit: an ordered syllabus of learning objects with
// an answer key. Topics are generated deterministically so every replica
// serves identical content.
type Topic struct {
	// Name is the content unit name.
	Name ids.UnitName
	// objects is the syllabus in order.
	objects []Object
	// answers maps quiz object ID to the correct option.
	answers map[int]int
	// remedials maps quiz object ID to its remedial object ID.
	remedials map[int]int
}

// GenerateTopic builds a synthetic topic with the given number of
// syllabus steps; every third object is a quiz followed by a (normally
// skipped) remedial explanation.
func GenerateTopic(name ids.UnitName, steps int) *Topic {
	t := &Topic{Name: name, answers: make(map[int]int), remedials: make(map[int]int)}
	id := 0
	for i := 0; i < steps; i++ {
		switch {
		case i%3 == 2:
			quizID := id
			t.objects = append(t.objects, Object{
				ID: quizID, Kind: KindQuiz,
				Title:   fmt.Sprintf("%s quiz %d", name, i),
				Body:    fmt.Sprintf("Question %d on %s?", i, name),
				Options: []string{"option A", "option B", "option C", "option D"},
			})
			t.answers[quizID] = (i * 7) % 4
			id++
			t.objects = append(t.objects, Object{
				ID: id, Kind: KindRemedial,
				Title: fmt.Sprintf("%s remedial %d", name, i),
				Body:  fmt.Sprintf("Detailed explanation for question %d.", i),
			})
			t.remedials[quizID] = id
			id++
		case i%3 == 1:
			t.objects = append(t.objects, Object{
				ID: id, Kind: KindAnimation,
				Title: fmt.Sprintf("%s animation %d", name, i),
				Body:  fmt.Sprintf("animation-bytes-%d", i),
			})
			id++
		default:
			t.objects = append(t.objects, Object{
				ID: id, Kind: KindNote,
				Title: fmt.Sprintf("%s note %d", name, i),
				Body:  fmt.Sprintf("Lecture notes, part %d of %s.", i, name),
			})
			id++
		}
	}
	return t
}

// Len returns the number of objects.
func (t *Topic) Len() int { return len(t.objects) }

// Object returns the object with the given ID, or false.
func (t *Topic) Object(id int) (Object, bool) {
	if id < 0 || id >= len(t.objects) {
		return Object{}, false
	}
	return t.objects[id], true
}

// Correct returns the answer key for a quiz.
func (t *Topic) Correct(quizID int) (int, bool) {
	a, ok := t.answers[quizID]
	return a, ok
}

// --- client requests ---

// Open asks for one specific learning object (following a hyperlink).
type Open struct {
	// ID is the object to fetch.
	ID int
}

// WireName implements wire.Message.
func (Open) WireName() string { return "edu.Open" }

// Answer submits a quiz answer.
type Answer struct {
	// Quiz is the quiz object ID.
	Quiz int
	// Choice is the selected option.
	Choice int
}

// WireName implements wire.Message.
func (Answer) WireName() string { return "edu.Answer" }

// Next asks the service to choose the next object adaptively.
type Next struct{}

// WireName implements wire.Message.
func (Next) WireName() string { return "edu.Next" }

// --- responses ---

// Content delivers one learning object. Responses travel server →
// client; the example client consumes them.
//
//hafw:handledby hafw/examples/education
type Content struct {
	// Object is the delivered object.
	Object Object
	// Progress is the 0-based syllabus position after this delivery.
	Progress int
}

// WireName implements wire.Message.
func (Content) WireName() string { return "edu.Content" }

// QuizResult reports a graded answer.
//
//hafw:handledby hafw/examples/education
type QuizResult struct {
	// Quiz is the quiz object ID.
	Quiz int
	// Correct reports whether the choice was right.
	Correct bool
	// Grade is the running quiz average in percent.
	Grade int
}

// WireName implements wire.Message.
func (QuizResult) WireName() string { return "edu.QuizResult" }

// Done signals the end of the syllabus.
//
//hafw:handledby hafw/examples/education
type Done struct{}

// WireName implements wire.Message.
func (Done) WireName() string { return "edu.Done" }

func init() {
	wire.Register(Open{})
	wire.Register(Answer{})
	wire.Register(Next{})
	wire.Register(Content{})
	wire.Register(QuizResult{})
	wire.Register(Done{})
	wire.Register(lessonContext{})
}

// lessonContext is the propagated session context, never dispatched.
//
//hafw:handledby -
type lessonContext struct {
	// Cursor is the next syllabus position.
	Cursor int
	// History is the IDs of objects delivered.
	History []int
	// Right and Wrong count graded answers.
	Right, Wrong int
	// NeedRemedial is the pending remedial object ID, or -1.
	NeedRemedial int
}

// WireName implements wire.Message.
func (lessonContext) WireName() string { return "edu.lessonContext" }

// Service is the education provider for one topic; it implements
// core.Service.
type Service struct {
	topic *Topic
}

// New creates the service for a topic.
func New(topic *Topic) *Service { return &Service{topic: topic} }

// Topic returns the served topic.
func (s *Service) Topic() *Topic { return s.topic }

var _ core.Service = (*Service)(nil)

// NewSession implements core.Service.
func (s *Service) NewSession(unit ids.UnitName, sid ids.SessionID, client ids.ClientID) core.Session {
	return &session{topic: s.topic, ctx: lessonContext{NeedRemedial: -1}}
}

// session is one student's lesson replica; it implements core.Session.
type session struct {
	topic *Topic

	mu     sync.Mutex
	ctx    lessonContext
	active bool
	r      core.Responder
}

var _ core.Session = (*session)(nil)

// ApplyUpdate implements core.Session: requests mutate the lesson context
// at primary and backups alike; only the primary (with a live responder)
// also answers.
func (s *session) ApplyUpdate(body wire.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch m := body.(type) {
	case Open:
		obj, ok := s.topic.Object(m.ID)
		if !ok {
			return
		}
		s.ctx.History = append(s.ctx.History, obj.ID)
		s.respondLocked(Content{Object: obj, Progress: s.ctx.Cursor})
	case Answer:
		correct, ok := s.topic.Correct(m.Quiz)
		if !ok {
			return
		}
		right := m.Choice == correct
		if right {
			s.ctx.Right++
			s.ctx.NeedRemedial = -1
		} else {
			s.ctx.Wrong++
			if rid, ok := s.topic.remedials[m.Quiz]; ok {
				s.ctx.NeedRemedial = rid
			}
		}
		s.respondLocked(QuizResult{Quiz: m.Quiz, Correct: right, Grade: s.gradeLocked()})
	case Next:
		s.advanceLocked()
	}
}

// gradeLocked returns the running quiz average in percent.
func (s *session) gradeLocked() int {
	total := s.ctx.Right + s.ctx.Wrong
	if total == 0 {
		return 100
	}
	return 100 * s.ctx.Right / total
}

// advanceLocked picks the next object: a pending remedial takes priority
// (the adaptive behavior), otherwise the syllabus cursor moves forward,
// skipping remedials for students in good standing.
func (s *session) advanceLocked() {
	if s.ctx.NeedRemedial >= 0 {
		if obj, ok := s.topic.Object(s.ctx.NeedRemedial); ok {
			s.ctx.NeedRemedial = -1
			s.ctx.History = append(s.ctx.History, obj.ID)
			s.respondLocked(Content{Object: obj, Progress: s.ctx.Cursor})
			return
		}
		s.ctx.NeedRemedial = -1
	}
	for s.ctx.Cursor < s.topic.Len() {
		obj, _ := s.topic.Object(s.ctx.Cursor)
		s.ctx.Cursor++
		if obj.Kind == KindRemedial {
			continue // only reached via a failed quiz
		}
		s.ctx.History = append(s.ctx.History, obj.ID)
		s.respondLocked(Content{Object: obj, Progress: s.ctx.Cursor})
		return
	}
	s.respondLocked(Done{})
}

// respondLocked sends through the responder when this replica is primary.
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
	c, ok := core.DecodeContext[lessonContext](ctx)
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ctx = c
}

// Sync implements core.Session: the propagated context tells a backup how
// far the primary's responses advanced the lesson; graded counts arrived
// via ApplyUpdate already, so only forward movement is adopted.
func (s *session) Sync(ctx []byte) {
	c, ok := core.DecodeContext[lessonContext](ctx)
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.Cursor > s.ctx.Cursor {
		s.ctx.Cursor = c.Cursor
	}
	if len(c.History) > len(s.ctx.History) {
		s.ctx.History = append([]int(nil), c.History...)
	}
}

// Progress returns (cursor, grade) — a testing hook.
func (s *session) Progress() (int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctx.Cursor, s.gradeLocked()
}
