package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"hafw/internal/clock"
	"hafw/internal/gcs"
	"hafw/internal/ids"
	"hafw/internal/metrics"
	"hafw/internal/obs"
	"hafw/internal/transport"
	"hafw/internal/waitx"
	"hafw/internal/wire"
)

// ErrTimeout is returned when the service does not answer a client call
// within the configured deadline (after retries).
var ErrTimeout = errors.New("core: request timed out")

// ResponseHandler consumes responses for one session. Seq is the primary's
// response counter; duplicate suppression is service-specific (for
// example, the VoD client dedups by frame number), because on takeover a
// new primary may legitimately resend the uncertainty window.
type ResponseHandler func(seq uint64, body wire.Message)

// ClientConfig parameterizes a framework client.
type ClientConfig struct {
	// Self is the client identity.
	Self ids.ClientID
	// Transport is the client's network endpoint.
	Transport transport.Transport
	// Servers is the a-priori known contact list for the service group.
	Servers []ids.ProcessID
	// RequestTimeout bounds one call attempt (ListUnits, StartSession,
	// EndSession). Zero means 300ms.
	RequestTimeout time.Duration
	// Retries is how many times calls are retried after a timeout (a retry
	// drops the cached group membership and resolves it afresh, so a
	// crashed responder is bypassed). Zero means 3.
	Retries int
	// OnResponseFrom, if set, observes every response's transport-level
	// source before it is dispatched to the session handler. The
	// experiment harness uses it to detect dual-primary windows (two
	// servers concurrently answering one session — paper Section 4).
	OnResponseFrom func(from ids.EndpointID, session ids.SessionID, seq uint64, body wire.Message)
	// Obs, if set, roots a trace per client call and stamps its context
	// onto outgoing requests, so server-side handling spans (and the
	// responses they cause) link back to the originating call.
	Obs *obs.Tracer
	// Clock is the time source for call deadlines, retries, and polling.
	// Nil means the wall clock.
	Clock clock.Clock
}

// Client metric names, recorded in the per-client registry (see Stats).
const (
	mCalls      = "client.calls"       // ListUnits/StartSession/EndSession invocations
	mSends      = "client.sends"       // session Send invocations
	mRetries    = "client.retries"     // extra call attempts after an attempt timeout
	mTimeouts   = "client.timeouts"    // calls that exhausted retries (ErrTimeout)
	mReresolves = "client.re_resolves" // membership cache invalidations (call retries) forcing a re-resolve
	mResponses  = "client.responses"   // session responses delivered
	mSendErrors = "client.send_errors" // group sends that failed outright (no servers)
)

// ClientStats is a point-in-time snapshot of a client's request-path
// counters. Loadgen aggregates these across its driver fleet; they are
// equally useful standalone for diagnosing a flapping deployment.
type ClientStats struct {
	// Calls counts ListUnits, StartSession and EndSession invocations.
	Calls uint64 `json:"calls"`
	// Sends counts session Send invocations.
	Sends uint64 `json:"sends"`
	// Retries counts extra call attempts made after an attempt timed out.
	Retries uint64 `json:"retries"`
	// Timeouts counts calls that exhausted their retries (ErrTimeout).
	Timeouts uint64 `json:"timeouts"`
	// Reresolves counts membership cache invalidations, each forcing the
	// next group send to wait for a bootstrap server's answer. Only retried
	// calls invalidate; session sends never do, and the background
	// refreshes of an aging membership are not counted here.
	Reresolves uint64 `json:"re_resolves"`
	// Responses counts session responses delivered to handlers.
	Responses uint64 `json:"responses"`
	// SendErrors counts group sends that failed outright (no reachable
	// servers for the group).
	SendErrors uint64 `json:"send_errors"`
}

// Client is a framework service client. It addresses the service, content
// and session groups abstractly; server failures, migrations and
// reconfigurations are invisible to it except as brief response gaps — the
// transparency the paper's design goals demand.
type Client struct {
	cfg ClientConfig
	g   *gcs.Client
	reg *metrics.Registry
	clk clock.Clock
	// Counter handles, looked up once: the request path increments them
	// per message.
	calls, sends, retries, timeouts, reresolves, responses, sendErrors *metrics.Counter

	mu        sync.Mutex
	unitWait  []chan UnitList
	startWait map[ids.UnitName][]chan SessionStarted
	endWait   map[ids.SessionID][]chan struct{}
	sessions  map[ids.SessionID]*ClientSession
}

// NewClient creates a framework client over the given transport.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 300 * time.Millisecond
	}
	if cfg.Retries == 0 {
		cfg.Retries = 3
	}
	reg := metrics.NewRegistry()
	c := &Client{
		cfg:        cfg,
		reg:        reg,
		clk:        clock.OrReal(cfg.Clock),
		calls:      reg.Counter(mCalls),
		sends:      reg.Counter(mSends),
		retries:    reg.Counter(mRetries),
		timeouts:   reg.Counter(mTimeouts),
		reresolves: reg.Counter(mReresolves),
		responses:  reg.Counter(mResponses),
		sendErrors: reg.Counter(mSendErrors),
		startWait:  make(map[ids.UnitName][]chan SessionStarted),
		endWait:    make(map[ids.SessionID][]chan struct{}),
		sessions:   make(map[ids.SessionID]*ClientSession),
	}
	g, err := gcs.NewClient(gcs.ClientConfig{
		Self:      cfg.Self,
		Transport: cfg.Transport,
		Servers:   cfg.Servers,
		OnMessage: c.onMessage,
		Clock:     cfg.Clock,
	})
	if err != nil {
		return nil, err
	}
	c.g = g
	return c, nil
}

// Close shuts the client down.
func (c *Client) Close() error { return c.g.Close() }

// Self returns the client identity.
func (c *Client) Self() ids.ClientID { return c.cfg.Self }

// Endpoint returns the client's endpoint identifier.
func (c *Client) Endpoint() ids.EndpointID { return ids.ClientEndpoint(c.cfg.Self) }

// Metrics returns the client's private metrics registry.
func (c *Client) Metrics() *metrics.Registry { return c.reg }

// Stats snapshots the client's request-path counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Calls:      c.calls.Value(),
		Sends:      c.sends.Value(),
		Retries:    c.retries.Value(),
		Timeouts:   c.timeouts.Value(),
		Reresolves: c.reresolves.Value(),
		Responses:  c.responses.Value(),
		SendErrors: c.sendErrors.Value(),
	}
}

// invalidate drops the cached membership for g after a call to it timed
// out (it may be why nobody answered), counting the blocking re-resolve
// the next send to g will perform.
func (c *Client) invalidate(g ids.GroupName) {
	c.reresolves.Inc()
	c.g.Invalidate(g)
}

func (c *Client) onMessage(from ids.EndpointID, m wire.Message) {
	switch msg := m.(type) {
	case UnitList:
		c.mu.Lock()
		ws := c.unitWait
		c.unitWait = nil
		c.mu.Unlock()
		for _, w := range ws {
			w <- msg
		}
	case SessionStarted:
		c.noteArrival("client.session-started", msg.TC)
		// Pop exactly one waiter: each SessionStarted names a distinct
		// session, so handing it to every waiter would alias concurrent
		// StartSession calls onto one session.
		c.mu.Lock()
		var w chan SessionStarted
		if ws := c.startWait[msg.Unit]; len(ws) > 0 {
			w = ws[0]
			if len(ws) == 1 {
				delete(c.startWait, msg.Unit)
			} else {
				c.startWait[msg.Unit] = ws[1:]
			}
		}
		c.mu.Unlock()
		if w != nil {
			w <- msg
		}
	case SessionEnded:
		c.mu.Lock()
		ws := c.endWait[msg.Session]
		delete(c.endWait, msg.Session)
		c.mu.Unlock()
		for _, w := range ws {
			close(w)
		}
	case Response:
		c.noteArrival("client.response", msg.TC)
		c.responses.Inc()
		if c.cfg.OnResponseFrom != nil {
			c.cfg.OnResponseFrom(from, msg.Session, msg.Seq, msg.Body)
		}
		c.mu.Lock()
		sess := c.sessions[msg.Session]
		c.mu.Unlock()
		if sess != nil {
			if p, ok := from.Process(); ok {
				c.g.Observe(sess.Group, p)
			}
			sess.deliver(msg.Seq, msg.Body)
		}
	}
}

// noteArrival records a point span linking an inbound server message into
// the trace that caused it (no-op for untraced messages).
func (c *Client) noteArrival(name string, tc wire.TraceContext) {
	if tc.IsZero() {
		return
	}
	sp := c.cfg.Obs.StartChild(name, tc)
	sp.End()
}

// ListUnits asks the service group for the available content units.
func (c *Client) ListUnits() ([]UnitInfo, error) {
	c.calls.Inc()
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			c.retries.Inc()
			c.invalidate(ServiceGroup)
		}
		ch := make(chan UnitList, 1)
		c.mu.Lock()
		c.unitWait = append(c.unitWait, ch)
		c.mu.Unlock()
		if err := c.g.SendToGroup(ServiceGroup, ListUnits{}); err != nil {
			c.sendErrors.Inc()
			return nil, err
		}
		if ul, ok := waitx.RecvC(c.clk, ch, c.cfg.RequestTimeout); ok {
			return ul.Units, nil
		}
	}
	c.timeouts.Inc()
	return nil, fmt.Errorf("%w: ListUnits", ErrTimeout)
}

// WaitUnit blocks until the named content unit is served by at least
// `replicas` servers (or the timeout elapses). Sessions started below the
// intended replication degree are exposed to exactly the total-loss risk
// the paper's Section 4 analyzes, so deployments wait for formation before
// opening sessions.
func (c *Client) WaitUnit(unit ids.UnitName, replicas int, timeout time.Duration) error {
	deadline := c.clk.Now().Add(timeout)
	for {
		units, err := c.ListUnits()
		if err == nil {
			for _, u := range units {
				if u.Unit == unit && u.Replicas >= replicas {
					return nil
				}
			}
		}
		if c.clk.Now().After(deadline) {
			return fmt.Errorf("%w: unit %s did not reach %d replicas", ErrTimeout, unit, replicas)
		}
		c.clk.Sleep(25 * time.Millisecond)
	}
}

// StartSession opens a session on a content unit. The handler receives the
// session's response stream; it may be nil for request-free probing.
func (c *Client) StartSession(unit ids.UnitName, h ResponseHandler) (*ClientSession, error) {
	c.calls.Inc()
	tc := c.cfg.Obs.RootContext()
	t0 := c.clk.Now()
	defer c.cfg.Obs.RecordSpan("client.start-session", tc, t0)
	group := ContentGroup(unit)
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			c.retries.Inc()
			c.invalidate(group)
		}
		ch := make(chan SessionStarted, 1)
		c.mu.Lock()
		c.startWait[unit] = append(c.startWait[unit], ch)
		c.mu.Unlock()
		if err := c.g.SendToGroupTC(group, StartSession{Unit: unit}, tc); err != nil {
			c.sendErrors.Inc()
			return nil, fmt.Errorf("start session on %s: %w", unit, err)
		}
		if st, ok := waitx.RecvC(c.clk, ch, c.cfg.RequestTimeout); ok {
			// The reply names the session group's members, so the first
			// Send resolves nothing (a reply without them costs that Send
			// one blocking resolve).
			c.g.Learn(st.Group, st.Members)
			sess := &ClientSession{
				c:     c,
				ID:    st.Session,
				Unit:  unit,
				Group: st.Group,
				h:     h,
			}
			c.mu.Lock()
			c.sessions[st.Session] = sess
			c.mu.Unlock()
			return sess, nil
		}
		c.dropStartWaiter(unit, ch)
	}
	c.timeouts.Inc()
	c.invalidate(group) // the last attempt's membership did not work either
	return nil, fmt.Errorf("%w: StartSession(%s)", ErrTimeout, unit)
}

// dropStartWaiter removes a timed-out StartSession waiter so it cannot
// steal a later caller's SessionStarted.
func (c *Client) dropStartWaiter(unit ids.UnitName, ch chan SessionStarted) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ws := c.startWait[unit]
	for i, w := range ws {
		if w == ch {
			c.startWait[unit] = append(ws[:i], ws[i+1:]...)
			break
		}
	}
	if len(c.startWait[unit]) == 0 {
		delete(c.startWait, unit)
	}
}

// ClientSession is an open session from the client's point of view: a
// session group name to talk to, and a response stream. The client never
// knows which server is the primary.
type ClientSession struct {
	c *Client
	// ID is the session identifier.
	ID ids.SessionID
	// Unit is the content unit.
	Unit ids.UnitName
	// Group is the session group all requests are addressed to.
	Group ids.GroupName

	mu sync.Mutex
	h  ResponseHandler
}

// deliver hands one response to the session handler; it runs once per
// inbound response.
//
//hafw:hotpath
func (s *ClientSession) deliver(seq uint64, body wire.Message) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	if h != nil {
		h(seq, body)
	}
}

// Send transmits one context update / request into the session group. The
// GCS's open-group machinery delivers it to the primary and every backup
// regardless of membership changes: the copies go to the members the
// client last learned of (from the session-start reply, then refreshed in
// the background as the entry ages or a stranger answers), and whichever
// server receives one brings it into the group's total order. Send waits
// for no server; it resolves the group first only when the client knows
// nothing of it.
//
//hafw:hotpath
func (s *ClientSession) Send(body wire.Message) error {
	s.c.sends.Inc()
	tc := s.c.cfg.Obs.RootContext()
	t0 := s.c.clk.Now()
	err := s.c.g.SendToGroupTC(s.Group, ClientRequest{Session: s.ID, Body: body}, tc)
	if err != nil {
		s.c.sendErrors.Inc()
	}
	s.c.cfg.Obs.RecordSpan("client.request", tc, t0)
	return err
}

// End closes the session, waiting for the service's confirmation
// (best-effort: after retries the session is dropped locally regardless,
// and the server's idle timeout eventually collects it).
func (s *ClientSession) End() error {
	s.c.calls.Inc()
	tc := s.c.cfg.Obs.RootContext()
	t0 := s.c.clk.Now()
	defer s.c.cfg.Obs.RecordSpan("client.end-session", tc, t0)
	var err error
	for attempt := 0; attempt <= s.c.cfg.Retries; attempt++ {
		if attempt > 0 {
			s.c.retries.Inc()
			s.c.invalidate(s.Group)
		}
		ch := make(chan struct{})
		s.c.mu.Lock()
		s.c.endWait[s.ID] = append(s.c.endWait[s.ID], ch)
		s.c.mu.Unlock()
		if err = s.c.g.SendToGroupTC(s.Group, EndSession{Session: s.ID}, tc); err != nil {
			s.c.sendErrors.Inc()
			break
		}
		if _, ok := waitx.RecvC(s.c.clk, ch, s.c.cfg.RequestTimeout); ok {
			err = nil
			goto done
		}
		err = fmt.Errorf("%w: EndSession(%d)", ErrTimeout, s.ID)
	}
	if err != nil && errors.Is(err, ErrTimeout) {
		s.c.timeouts.Inc()
	}
done:
	s.c.mu.Lock()
	delete(s.c.sessions, s.ID)
	delete(s.c.endWait, s.ID)
	s.c.mu.Unlock()
	s.c.g.Forget(s.Group)
	return err
}
