// Package rsm implements the extension sketched in the paper's
// conclusions: "integrate into the design a mechanism for consistently
// updating the state that is shared between clients, using the well-known
// replicated state machine technique" (Schneider [6]).
//
// A Replica applies deterministic commands in the GCS's total order, so
// all replicas of a group hold identical state. Joiners are brought up to
// date by a snapshot multicast from the group's least member after every
// view change that admits someone; commands delivered to a joiner before
// its snapshot are buffered and replayed above the snapshot point.
package rsm

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"hafw/internal/gcs"
	"hafw/internal/ids"
	"hafw/internal/wire"
)

// StateMachine is the deterministic application state. Apply must be a
// pure function of the current state and the command — replicas applying
// the same command sequence must converge.
type StateMachine interface {
	// Apply executes one command and returns its result.
	Apply(cmd wire.Message) wire.Message
	// Snapshot encodes the full state.
	Snapshot() []byte
	// Restore replaces the state from a snapshot.
	Restore(data []byte)
}

// Cmd wraps a submitted command with the submitter's nonce so the
// submitting replica can recognize its own delivery and resolve Submit.
type Cmd struct {
	// Nonce is submitter-local and unique.
	Nonce uint64
	// Body is the application command.
	Body wire.Message
}

// WireName implements wire.Message.
func (Cmd) WireName() string { return "rsm.Cmd" }

// Snap carries a state snapshot to joiners.
type Snap struct {
	// N is the number of commands applied when the snapshot was taken.
	N uint64
	// Data is the encoded state.
	Data []byte
}

// WireName implements wire.Message.
func (Snap) WireName() string { return "rsm.Snap" }

func init() {
	wire.Register(Cmd{})
	wire.Register(Snap{})
}

// Group is the slice of the GCS a replica needs.
type Group interface {
	// Multicast sends into the group's total order.
	Multicast(g ids.GroupName, m wire.Message) error
	// Self identifies the local process.
	Self() ids.ProcessID
}

var _ Group = (*gcs.Process)(nil)

// ErrTimeout is returned when a submitted command is not delivered within
// the deadline (for example, during a view change).
var ErrTimeout = errors.New("rsm: command not delivered in time")

// Replica is one member's state machine instance. The owner must route
// the group's events (both messages and views) into HandleEvent from the
// GCS event goroutine; all state-machine calls happen on that goroutine.
type Replica struct {
	group ids.GroupName
	sm    StateMachine
	g     Group

	mu sync.Mutex
	// appliedN counts commands applied, in total order.
	appliedN uint64
	// bootstrapped is false for a joiner awaiting its snapshot.
	bootstrapped bool
	// buffer holds (command, index) pairs delivered before the snapshot.
	buffer []bufferedCmd
	// waiters maps nonce → channel resolving a local Submit.
	waiters map[uint64]chan wire.Message
	// nextNonce numbers local submissions.
	nextNonce uint64
	// members is the latest group view.
	members []ids.ProcessID
	// submitTimeout bounds Submit: the submitTimeout constant, which tests
	// shorten.
	submitTimeout time.Duration
}

type bufferedCmd struct {
	cmd  Cmd
	from ids.EndpointID
}

// Config parameterizes a replica.
type Config struct {
	// Group is the RSM's multicast group. The owner must have joined it.
	Group ids.GroupName
	// Machine is the application state machine.
	Machine StateMachine
	// Proc provides multicast and identity.
	Proc Group
	// Bootstrapped marks founding members (their empty state *is* the
	// initial state). Leave false for joiners, which wait for a snapshot.
	Bootstrapped bool
}

// submitTimeout bounds Submit.
const submitTimeout = 5 * time.Second

// New creates a replica.
func New(cfg Config) (*Replica, error) {
	if cfg.Group == "" || cfg.Machine == nil || cfg.Proc == nil {
		return nil, errors.New("rsm: Group, Machine, and Proc are required")
	}
	return &Replica{
		group:         cfg.Group,
		sm:            cfg.Machine,
		g:             cfg.Proc,
		bootstrapped:  cfg.Bootstrapped,
		waiters:       make(map[uint64]chan wire.Message),
		submitTimeout: submitTimeout,
	}, nil
}

// AppliedN returns the number of commands applied.
func (r *Replica) AppliedN() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.appliedN
}

// Bootstrapped reports whether the replica has live state.
func (r *Replica) Bootstrapped() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bootstrapped
}

// Submit multicasts a command and blocks until the replica applies its own
// delivery, returning the result. Do not call from the GCS event
// goroutine (it would deadlock waiting for its own delivery).
func (r *Replica) Submit(body wire.Message) (wire.Message, error) {
	r.mu.Lock()
	r.nextNonce++
	nonce := r.nextNonce
	ch := make(chan wire.Message, 1)
	r.waiters[nonce] = ch
	r.mu.Unlock()

	if err := r.g.Multicast(r.group, Cmd{Nonce: nonce, Body: body}); err != nil {
		r.dropWaiter(nonce)
		return nil, err
	}
	select {
	case res := <-ch:
		return res, nil
	case <-time.After(r.submitTimeout):
		r.dropWaiter(nonce)
		return nil, fmt.Errorf("%w (nonce %d)", ErrTimeout, nonce)
	}
}

func (r *Replica) dropWaiter(nonce uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.waiters, nonce)
}

// HandleEvent consumes one GCS event for the replica's group. Events for
// other groups are ignored, so an owner can fan the full event stream in.
func (r *Replica) HandleEvent(e gcs.Event) {
	switch ev := e.(type) {
	case gcs.MessageEvent:
		if ev.Group != r.group {
			return
		}
		switch m := ev.Payload.(type) {
		case Cmd:
			r.onCmd(ev.From, m)
		case Snap:
			r.onSnap(m)
		}
	case gcs.ViewEvent:
		if ev.View.Group != r.group {
			return
		}
		r.onView(ev)
	}
}

// onCmd applies (or buffers) one totally ordered command.
func (r *Replica) onCmd(from ids.EndpointID, c Cmd) {
	r.mu.Lock()
	if !r.bootstrapped {
		// Awaiting the snapshot: everything delivered to a joiner is
		// ordered after its admitting view, and the leader snapshots
		// exactly at that view position, so every buffered command must be
		// replayed above the snapshot.
		r.buffer = append(r.buffer, bufferedCmd{cmd: c, from: from})
		r.mu.Unlock()
		return
	}
	r.appliedN++
	r.mu.Unlock()
	r.apply(from, c)
}

// apply runs one command and resolves a local waiter.
//
//hafw:deterministic
func (r *Replica) apply(from ids.EndpointID, c Cmd) {
	res := r.sm.Apply(c.Body)
	if p, ok := from.Process(); !ok || p != r.g.Self() {
		return
	}
	r.mu.Lock()
	ch := r.waiters[c.Nonce]
	delete(r.waiters, c.Nonce)
	r.mu.Unlock()
	if ch != nil {
		ch <- res
	}
}

// onSnap bootstraps a joiner (or is ignored by live members). The
// snapshot was taken at the admitting view's position in the total order
// and the joiner's buffer holds exactly the commands ordered after that
// view, so restore-then-replay reconstructs the leader's state.
func (r *Replica) onSnap(s Snap) {
	r.mu.Lock()
	if r.bootstrapped {
		r.mu.Unlock()
		return
	}
	r.bootstrapped = true
	replay := r.buffer
	r.buffer = nil
	r.appliedN = s.N + uint64(len(replay))
	r.mu.Unlock()

	r.sm.Restore(s.Data)
	for _, bc := range replay {
		r.apply(bc.from, bc.cmd)
	}
}

// onView reacts to membership: after any view that admits members, the
// least member multicasts its snapshot so joiners can catch up.
func (r *Replica) onView(ev gcs.ViewEvent) {
	r.mu.Lock()
	r.members = ev.View.Members
	amLeader := len(ev.View.Members) > 0 && ev.View.Members[0] == r.g.Self()
	boot := r.bootstrapped
	n := r.appliedN
	r.mu.Unlock()

	if !amLeader || !boot {
		return
	}
	if len(ev.Joined) == 0 && len(ev.View.Members) <= 1 {
		return
	}
	snap := Snap{N: n, Data: r.sm.Snapshot()}
	_ = r.g.Multicast(r.group, snap)
}
