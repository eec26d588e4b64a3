// Package membership implements a partitionable, process-level membership
// service: the bottom half of the GCS the paper assumes.
//
// The protocol is coordinator-driven view agreement. Each process tracks a
// reachable set through a failure detector. Whenever the reachable set
// disagrees with the current view, the least reachable process proposes a
// new view (epoch-numbered so concurrent proposals are totally ordered);
// members accept the highest proposal they have seen and return an opaque
// synchronization blob collected from the layer above (virtual synchrony's
// flush); when every proposed member accepted, the coordinator commits the
// view together with all blobs, and each member hands the blobs to the
// layer above before exposing the view. Rounds that lose members retry
// with a higher epoch and a recomputed member set.
//
// Guarantees (matching the paper's GCS requirements, see Vitenberg et al.):
//
//   - self-inclusion: every installed view contains the installer;
//   - monotonicity: views install in strictly increasing ID order at each
//     process;
//   - partitionability: disjoint components install disjoint views;
//   - precision in stable runs: once the failure detector is accurate and
//     quiescent, all processes in a component install the same final view
//     whose membership is exactly the component;
//   - flush hook: members that move together from view V to view W were
//     handed the same state blobs, which is what the layer above needs to
//     deliver the same message set in V (virtual synchrony).
//
// Round deadlines and nudge rate limits derive solely from the injected
// clock.Clock, so a simulated clock (possibly skewed per node) fully
// controls the protocol's notion of elapsed time.
//
//hafw:simclock
package membership

import (
	"sort"
	"sync"
	"time"

	"hafw/internal/clock"
	"hafw/internal/ids"
	"hafw/internal/wire"
)

// Propose asks the recipients to join a new view.
type Propose struct {
	// VID is the proposed view identifier.
	VID ids.ViewID
	// Members is the proposed member set (sorted).
	Members []ids.ProcessID
}

// WireName implements wire.Message.
func (Propose) WireName() string { return "membership.Propose" }

// Accept is a member's agreement to a proposal, carrying its flush state.
type Accept struct {
	// VID echoes the accepted proposal.
	VID ids.ViewID
	// State is the opaque synchronization blob from Hooks.Collect.
	State []byte
}

// WireName implements wire.Message.
func (Accept) WireName() string { return "membership.Accept" }

// Nudge tells the coordinator of one's reachable set that the sender's
// installed view disagrees with it. A member can miss a Commit (its
// process was isolated exactly when the message flew); without repair, the
// coordinator would sit in steady state forever while the member starves.
// On receipt, a coordinator whose own view looks fine re-runs a round.
type Nudge struct {
	// VID is the sender's current view.
	VID ids.ViewID
}

// WireName implements wire.Message.
func (Nudge) WireName() string { return "membership.Nudge" }

// Commit installs an agreed view, carrying every member's flush state.
type Commit struct {
	// VID is the committed view identifier.
	VID ids.ViewID
	// Members is the final member set.
	Members []ids.ProcessID
	// States maps each member to the blob it sent in its Accept.
	States map[ids.ProcessID][]byte
}

// WireName implements wire.Message.
func (Commit) WireName() string { return "membership.Commit" }

func init() {
	wire.Register(Propose{})
	wire.Register(Accept{})
	wire.Register(Commit{})
	wire.Register(Nudge{})
}

// Hooks is how the layer above (virtual synchrony) participates in view
// changes. All hooks are invoked from the membership goroutine, never
// concurrently with each other.
type Hooks interface {
	// Block is called when this process accepts a proposal. The layer
	// above must stop initiating new multicasts until the next Install.
	// Block may be called repeatedly (retried rounds) without an
	// intervening Install.
	Block()
	// Collect returns the synchronization state for the dying view. It may
	// be called repeatedly; each call should reflect the latest state.
	Collect() []byte
	// Install delivers the agreed view together with every member's
	// collected state. The layer above must complete its flush (deliver
	// the union of messages) before exposing the view to applications, and
	// then resume multicasting.
	Install(v View, states map[ids.ProcessID][]byte)
}

// NopHooks is a Hooks that does nothing except optionally observe views;
// useful for tests of the membership layer alone.
type NopHooks struct {
	// OnInstall, if non-nil, observes installed views.
	OnInstall func(v View, states map[ids.ProcessID][]byte)
}

// Block implements Hooks.
func (NopHooks) Block() {}

// Collect implements Hooks.
func (NopHooks) Collect() []byte { return nil }

// Install implements Hooks.
func (h NopHooks) Install(v View, states map[ids.ProcessID][]byte) {
	if h.OnInstall != nil {
		h.OnInstall(v, states)
	}
}

// Sender is the outbound transport dependency.
type Sender interface {
	Send(to ids.EndpointID, m wire.Message) error
}

// Config parameterizes a membership Service.
type Config struct {
	// Self is the local process.
	Self ids.ProcessID
	// Send transmits protocol messages.
	Send Sender
	// Hooks receives flush callbacks. Nil means NopHooks{}.
	Hooks Hooks
	// RoundTimeout bounds one propose/accept round before the coordinator
	// retries with a fresh membership estimate. Zero means 150ms.
	RoundTimeout time.Duration
	// Clock is the time source for round deadlines and the retry ticker.
	// Nil means the wall clock.
	Clock clock.Clock
}

// Service runs the membership protocol for one process.
type Service struct {
	cfg   Config
	hooks Hooks
	clk   clock.Clock

	mu sync.Mutex
	// curView is the currently installed view.
	curView View
	// maxEpoch is the highest epoch seen in any proposal or commit.
	maxEpoch uint64
	// accepted is the highest proposal this process has accepted.
	accepted ids.ViewID
	// round is the coordinator-side state of an in-progress round, nil if
	// this process is not currently coordinating.
	round *roundState
	// reachable is the latest failure-detector estimate (sorted, includes
	// self).
	reachable []ids.ProcessID
	// lastNudge rate-limits disagreement nudges to the coordinator.
	lastNudge time.Time
	// nudged is set when a member reports view disagreement; it forces a
	// round even though the local view matches the reachable set.
	nudged  bool
	stopped bool

	wake  chan struct{}
	inbox chan inboundMsg
	stop  chan struct{}
	done  chan struct{}
}

// inboundMsg is one queued protocol message awaiting the loop goroutine.
type inboundMsg struct {
	from ids.ProcessID
	msg  wire.Message
}

// roundState tracks one coordinator round.
type roundState struct {
	vid      ids.ViewID
	members  []ids.ProcessID
	states   map[ids.ProcessID][]byte
	deadline time.Time
}

// New creates the service. The initial view is the singleton {Self} with
// ID (1, Self); it is installed silently (no hook calls) since there is
// nothing to flush.
func New(cfg Config) *Service {
	if cfg.RoundTimeout == 0 {
		cfg.RoundTimeout = 150 * time.Millisecond
	}
	hooks := cfg.Hooks
	if hooks == nil {
		hooks = NopHooks{}
	}
	s := &Service{
		cfg:       cfg,
		hooks:     hooks,
		clk:       clock.OrReal(cfg.Clock),
		curView:   NewView(ids.ViewID{Epoch: 1, Coord: cfg.Self}, []ids.ProcessID{cfg.Self}),
		maxEpoch:  1,
		reachable: []ids.ProcessID{cfg.Self},
		wake:      make(chan struct{}, 1),
		inbox:     make(chan inboundMsg, 1024),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	return s
}

// Start launches the protocol goroutine.
func (s *Service) Start() { go s.loop() }

// Stop terminates the protocol goroutine.
func (s *Service) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	s.mu.Unlock()
	close(s.stop)
	<-s.done
}

// View returns the currently installed view.
func (s *Service) View() View {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.curView
}

// ReachableChanged feeds a new failure-detector estimate. Wire it to
// fd.Config.OnChange.
func (s *Service) ReachableChanged(reachable []ids.ProcessID) {
	s.mu.Lock()
	s.reachable = append([]ids.ProcessID(nil), reachable...)
	s.mu.Unlock()
	s.kick()
}

// Handle enqueues one inbound membership message for the protocol
// goroutine. The owner routes envelopes whose payload is a membership type
// here. If the queue is full the message is dropped; the protocol's
// retry machinery recovers.
func (s *Service) Handle(from ids.ProcessID, m wire.Message) {
	select {
	case s.inbox <- inboundMsg{from: from, msg: m}:
	default:
	}
}

// dispatch runs one inbound message on the protocol goroutine.
func (s *Service) dispatch(in inboundMsg) {
	switch msg := in.msg.(type) {
	case Propose:
		s.handlePropose(in.from, msg)
	case Accept:
		s.handleAccept(in.from, msg)
	case Commit:
		s.handleCommit(msg)
	case Nudge:
		s.mu.Lock()
		if msg.VID != s.curView.ID {
			s.nudged = true
		}
		s.mu.Unlock()
	}
}

// kick nudges the protocol loop.
func (s *Service) kick() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

func (s *Service) loop() {
	defer close(s.done)
	ticker := s.clk.NewTicker(s.cfg.RoundTimeout / 3)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case in := <-s.inbox:
			s.dispatch(in)
		case <-s.wake:
		case <-ticker.C():
		}
		s.step()
	}
}

// step decides whether to start or retry a coordinator round.
func (s *Service) step() {
	s.mu.Lock()
	reach := append([]ids.ProcessID(nil), s.reachable...)
	cur := s.curView
	round := s.round
	nudged := s.nudged
	s.nudged = false
	now := s.clk.Now()
	s.mu.Unlock()

	iAmCoord := len(reach) > 0 && reach[0] == s.cfg.Self
	viewMatches := sameSet(cur.Members, reach)

	if !iAmCoord {
		// Not the coordinator of our component: abandon any stale round
		// and wait for the real coordinator — but if our view disagrees
		// with what we can reach, tell the coordinator: it may have missed
		// nothing itself (we missed its Commit) and would otherwise idle
		// forever.
		if round != nil {
			s.mu.Lock()
			s.round = nil
			s.mu.Unlock()
		}
		if !viewMatches {
			s.mu.Lock()
			due := now.Sub(s.lastNudge) >= s.cfg.RoundTimeout
			if due {
				s.lastNudge = now
			}
			s.mu.Unlock()
			if due {
				_ = s.cfg.Send.Send(ids.ProcessEndpoint(reach[0]), Nudge{VID: cur.ID})
			}
		}
		return
	}
	if viewMatches && round == nil && !nudged {
		return // steady state
	}
	// Either the view disagrees with the reachable set, or a round is in
	// flight. A started round is always driven to a commit — even if the
	// failure-detector estimate reverts to the current membership —
	// because remote members may have accepted (and blocked multicasts)
	// and only a commit unblocks them.
	if round != nil && sameSet(round.members, reach) && now.Before(round.deadline) {
		return // round in flight and still plausible
	}
	s.startRound(reach)
}

// startRound begins a coordinator round proposing the given member set.
func (s *Service) startRound(members []ids.ProcessID) {
	s.mu.Lock()
	s.maxEpoch++
	vid := ids.ViewID{Epoch: s.maxEpoch, Coord: s.cfg.Self}
	s.round = &roundState{
		vid:      vid,
		members:  append([]ids.ProcessID(nil), members...),
		states:   make(map[ids.ProcessID][]byte, len(members)),
		deadline: s.clk.Now().Add(s.cfg.RoundTimeout),
	}
	s.mu.Unlock()

	prop := Propose{VID: vid, Members: members}
	for _, m := range members {
		if m == s.cfg.Self {
			continue
		}
		_ = s.cfg.Send.Send(ids.ProcessEndpoint(m), prop)
	}
	// Local accept.
	s.handlePropose(s.cfg.Self, prop)
}

func (s *Service) handlePropose(from ids.ProcessID, p Propose) {
	s.mu.Lock()
	if s.maxEpoch < p.VID.Epoch {
		s.maxEpoch = p.VID.Epoch
	}
	// Accept only proposals newer than both the installed view and any
	// previously accepted proposal, and only if we are included.
	if !p.VID.After(s.curView.ID) || (!s.accepted.IsZero() && !p.VID.After(s.accepted)) {
		s.mu.Unlock()
		return
	}
	included := false
	for _, m := range p.Members {
		if m == s.cfg.Self {
			included = true
			break
		}
	}
	if !included {
		s.mu.Unlock()
		return
	}
	s.accepted = p.VID
	s.mu.Unlock()

	// Block new multicasts and collect flush state for the dying view.
	s.hooks.Block()
	state := s.hooks.Collect()

	if from == s.cfg.Self {
		s.recordAccept(s.cfg.Self, Accept{VID: p.VID, State: state})
		return
	}
	_ = s.cfg.Send.Send(ids.ProcessEndpoint(from), Accept{VID: p.VID, State: state})
}

func (s *Service) handleAccept(from ids.ProcessID, a Accept) {
	s.recordAccept(from, a)
}

// recordAccept books an accept into the coordinator round and commits when
// complete.
func (s *Service) recordAccept(from ids.ProcessID, a Accept) {
	s.mu.Lock()
	round := s.round
	if round == nil || round.vid != a.VID {
		s.mu.Unlock()
		return
	}
	round.states[from] = a.State
	complete := true
	for _, m := range round.members {
		if _, ok := round.states[m]; !ok {
			complete = false
			break
		}
	}
	if !complete {
		s.mu.Unlock()
		return
	}
	commit := Commit{VID: round.vid, Members: round.members, States: round.states}
	s.round = nil
	s.mu.Unlock()

	for _, m := range commit.Members {
		if m == s.cfg.Self {
			continue
		}
		_ = s.cfg.Send.Send(ids.ProcessEndpoint(m), commit)
	}
	s.handleCommit(commit)
}

func (s *Service) handleCommit(c Commit) {
	s.mu.Lock()
	if s.maxEpoch < c.VID.Epoch {
		s.maxEpoch = c.VID.Epoch
	}
	if !c.VID.After(s.curView.ID) {
		s.mu.Unlock()
		return
	}
	v := NewView(c.VID, c.Members)
	if !v.Contains(s.cfg.Self) {
		s.mu.Unlock()
		return
	}
	s.curView = v
	s.mu.Unlock()

	states := make(map[ids.ProcessID][]byte, len(c.States))
	for p, b := range c.States {
		states[p] = b
	}
	s.hooks.Install(v, states)
	s.kick()
}

// sameSet reports whether two sorted process slices hold the same set.
func sameSet(a, b []ids.ProcessID) bool {
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

// SortProcesses sorts a process slice in place and returns it; exported
// for layers that must canonicalize member lists the same way this package
// does.
func SortProcesses(ps []ids.ProcessID) []ids.ProcessID {
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	return ps
}
