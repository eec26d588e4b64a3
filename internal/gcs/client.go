package gcs

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"hafw/internal/clock"
	"hafw/internal/ids"
	"hafw/internal/transport"
	"hafw/internal/vsync"
	"hafw/internal/waitx"
	"hafw/internal/wire"
)

// ErrNoServers is returned when a client cannot resolve any member for a
// group from any bootstrap server.
var ErrNoServers = errors.New("gcs: no reachable servers for group")

// groupError reports that no server could be found for one group; it
// matches ErrNoServers. (A type rather than fmt.Errorf keeps formatting off
// the send path: the text is built only if someone reads it.)
type groupError struct {
	group ids.GroupName
	empty bool // servers answered, with an empty membership
}

func (e *groupError) Error() string {
	s := ErrNoServers.Error() + ": " + string(e.group)
	if e.empty {
		s += " (empty membership)"
	}
	return s
}

func (e *groupError) Unwrap() error { return ErrNoServers }

const (
	// resolveTimeout bounds one resolution round-trip.
	resolveTimeout = 150 * time.Millisecond
	// cacheTTL is how long a resolved membership is used before it is
	// refreshed in the background (sends keep going to the old members
	// until the answer arrives).
	cacheTTL = 250 * time.Millisecond
)

// ClientConfig parameterizes a Client.
type ClientConfig struct {
	// Self is the client identity.
	Self ids.ClientID
	// Transport is the client's network endpoint.
	Transport transport.Transport
	// Servers is the a-priori known service group: processes the client
	// may ask to resolve group membership (paper: "all clients have a
	// priori knowledge of this group's name").
	Servers []ids.ProcessID
	// OnMessage receives point-to-point messages (server responses).
	OnMessage func(from ids.EndpointID, m wire.Message)
	// Clock is the time source for resolve deadlines and cache aging. Nil
	// means the wall clock.
	Clock clock.Clock
}

// Client is the client-side GCS endpoint: it addresses groups abstractly
// and never tracks server membership itself — exactly the transparency the
// framework promises clients.
type Client struct {
	cfg ClientConfig
	tr  transport.Transport
	clk clock.Clock

	nextSeq atomic.Uint64

	mu      sync.Mutex
	cache   map[ids.GroupName]cachedMembers
	waiters map[ids.GroupName][]chan []ids.ProcessID
	// servers is replaced, never modified in place, so a reader may keep
	// using the slice it saw under mu.
	servers []ids.ProcessID
	// pref indexes the bootstrap server asked first: the one that last
	// answered with a membership.
	pref   int
	closed bool
}

// cachedMembers is what the client knows of one group. Sends use members
// until something newer replaces it; the entry is refreshed on evidence
// (age, a response from a server outside it), never per send.
type cachedMembers struct {
	// members is replaced, never modified in place.
	members []ids.ProcessID
	// at is when members was learned.
	at time.Time
	// asked is when a background refresh was last requested, from askedOf;
	// the request went unanswered as long as at is before asked.
	asked   time.Time
	askedOf ids.ProcessID
}

// NewClient creates a client endpoint over the given transport.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Self == 0 {
		return nil, errors.New("gcs: ClientConfig.Self is required")
	}
	if cfg.Transport == nil {
		return nil, errors.New("gcs: ClientConfig.Transport is required")
	}
	c := &Client{
		cfg:     cfg,
		tr:      cfg.Transport,
		clk:     clock.OrReal(cfg.Clock),
		cache:   make(map[ids.GroupName]cachedMembers),
		waiters: make(map[ids.GroupName][]chan []ids.ProcessID),
		servers: append([]ids.ProcessID(nil), cfg.Servers...),
	}
	c.tr.SetHandler(c.route)
	return c, nil
}

// Close shuts the client down.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return c.tr.Close()
}

// Self returns the client identity.
func (c *Client) Self() ids.ClientID { return c.cfg.Self }

// Endpoint returns the client's endpoint identifier.
func (c *Client) Endpoint() ids.EndpointID { return ids.ClientEndpoint(c.cfg.Self) }

func (c *Client) route(env wire.Envelope) {
	switch m := env.Payload.(type) {
	case vsync.ResolveReply:
		c.mu.Lock()
		e, known := c.cache[m.Group]
		ws := c.waiters[m.Group]
		delete(c.waiters, m.Group)
		// An empty answer is never cached: it may come from a server that
		// has not rejoined yet, and whoever asked goes on to the next one.
		// Nor is an answer nobody is waiting for (the group was forgotten).
		if len(m.Members) > 0 && (known || len(ws) > 0) {
			e.members, e.at = m.Members, c.clk.Now()
			c.cache[m.Group] = e
			if p, ok := env.From.Process(); ok {
				for i, s := range c.servers {
					if s == p {
						c.pref = i
						break
					}
				}
			}
		}
		c.mu.Unlock()
		for _, w := range ws {
			w <- m.Members
		}
	default:
		if c.cfg.OnMessage != nil {
			c.cfg.OnMessage(env.From, env.Payload)
		}
	}
}

// Resolve returns the membership of g to send to. A known membership is
// returned at once, however old; past cacheTTL a refresh is also requested,
// without waiting: the send in hand goes to the old members and a later one
// picks up the answer. Only a group the client knows nothing about costs a
// round trip: the bootstrap servers are asked in turn, starting with the
// one that last answered, and an empty answer moves on to the next. An
// empty membership with nil error means every server that answered says
// the group has no members.
func (c *Client) Resolve(g ids.GroupName) ([]ids.ProcessID, error) {
	c.mu.Lock()
	if e, ok := c.cache[g]; ok {
		var ask ids.ProcessID
		now := c.clk.Now()
		due := now.Sub(e.at) >= cacheTTL
		if due {
			ask, due = c.askLocked(g, e, now)
		}
		c.mu.Unlock()
		if due {
			_ = c.tr.Send(ids.ProcessEndpoint(ask), vsync.Resolve{Group: g})
		}
		return e.members, nil
	}
	servers, first := c.servers, c.pref
	c.mu.Unlock()
	if len(servers) == 0 {
		return nil, ErrNoServers
	}

	answered := false
	for i := range servers {
		s := servers[(first+i)%len(servers)]
		ch := make(chan []ids.ProcessID, 1)
		c.mu.Lock()
		c.waiters[g] = append(c.waiters[g], ch)
		c.mu.Unlock()
		_ = c.tr.Send(ids.ProcessEndpoint(s), vsync.Resolve{Group: g})
		members, ok := waitx.RecvC(c.clk, ch, resolveTimeout)
		if !ok {
			c.dropWaiter(g, ch)
			continue
		}
		if len(members) > 0 {
			return members, nil
		}
		answered = true
	}
	if answered {
		return nil, nil
	}
	return nil, &groupError{group: g}
}

// askLocked decides whether a background refresh of g's entry e is due
// and, if so, records it and names the server to ask. At most one request
// per resolveTimeout goes out for a group; one that went unanswered moves
// the preference on to the next bootstrap server. Caller holds c.mu and
// sends the Resolve after releasing it.
func (c *Client) askLocked(g ids.GroupName, e cachedMembers, now time.Time) (ids.ProcessID, bool) {
	if len(c.servers) == 0 || now.Sub(e.asked) < resolveTimeout {
		return 0, false
	}
	if e.at.Before(e.asked) && c.servers[c.pref] == e.askedOf {
		c.pref = (c.pref + 1) % len(c.servers)
	}
	e.asked, e.askedOf = now, c.servers[c.pref]
	c.cache[g] = e
	return e.askedOf, true
}

// Learn records members as g's membership, as told by a server (the
// session-start reply names the session group), so the first send to g
// resolves nothing. An empty list teaches nothing.
func (c *Client) Learn(g ids.GroupName, members []ids.ProcessID) {
	if len(members) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cache[g] = cachedMembers{members: members, at: c.clk.Now()}
}

// Observe notes that server p answered for g. A responder outside the
// known membership is evidence the group has moved: a refresh is requested
// without waiting for it.
func (c *Client) Observe(g ids.GroupName, p ids.ProcessID) {
	c.mu.Lock()
	e, ok := c.cache[g]
	if !ok || (vsync.GroupView{Members: e.members}).Contains(p) {
		c.mu.Unlock()
		return
	}
	ask, due := c.askLocked(g, e, c.clk.Now())
	c.mu.Unlock()
	if due {
		_ = c.tr.Send(ids.ProcessEndpoint(ask), vsync.Resolve{Group: g})
	}
}

func (c *Client) dropWaiter(g ids.GroupName, ch chan []ids.ProcessID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ws := c.waiters[g]
	for i, w := range ws {
		if w == ch {
			ws = append(ws[:i], ws[i+1:]...)
			break
		}
	}
	if len(ws) == 0 {
		delete(c.waiters, g)
	} else {
		c.waiters[g] = ws
	}
}

// Invalidate drops the cached membership for g because it is suspect (a
// call to g timed out), forcing the next Resolve to ask a server.
func (c *Client) Invalidate(g ids.GroupName) { c.Forget(g) }

// Forget drops what the client knows of g. Callers use it when they are
// done with a group (an ended session), so the cache holds live groups
// only; an answer to a refresh still in flight is then ignored.
func (c *Client) Forget(g ids.GroupName) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.cache, g)
}

// Known reports how many groups the client holds a membership for and how
// many it is waiting on a server's answer for. Both follow the groups in
// use, not the groups ever addressed.
func (c *Client) Known() (cached, awaited int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cache), len(c.waiters)
}

// SendToGroup performs an open-group send: the message enters g's total
// order exactly once even though it is fanned out to every member the
// client can resolve (the coordinator deduplicates by message ID). The
// client never needs to know which member is the primary.
func (c *Client) SendToGroup(g ids.GroupName, m wire.Message) error {
	return c.SendToGroupTC(g, m, wire.TraceContext{})
}

// SendToGroupTC is SendToGroup carrying the client's trace context; every
// fan-out copy shares the same message ID and context, so the trace sees
// one causal edge regardless of which copy wins deduplication. Any server
// that receives a copy brings it into the total order, member of g or not,
// so a membership that has gone stale still works while one server in it
// is alive.
//
//hafw:hotpath
func (c *Client) SendToGroupTC(g ids.GroupName, m wire.Message, tc wire.TraceContext) error {
	members, err := c.Resolve(g)
	if err != nil {
		return err
	}
	if len(members) == 0 {
		return &groupError{group: g, empty: true}
	}
	id := ids.MsgID{Sender: c.Endpoint(), Seq: c.nextSeq.Add(1)}
	cs := vsync.ClientSend{Group: g, ID: id, Payload: m, TC: tc}
	for _, s := range members {
		_ = c.tr.Send(ids.ProcessEndpoint(s), cs)
	}
	return nil
}

// Send transmits a point-to-point message to one endpoint (for example a
// start-of-session handshake addressed to a specific server).
func (c *Client) Send(to ids.EndpointID, m wire.Message) error {
	return c.tr.Send(to, m)
}

// SetServers replaces the bootstrap server list.
func (c *Client) SetServers(servers []ids.ProcessID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.servers = append([]ids.ProcessID(nil), servers...)
	c.pref = 0
}
