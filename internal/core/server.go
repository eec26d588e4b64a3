package core

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"hafw/internal/clock"
	"hafw/internal/gcs"
	"hafw/internal/ids"
	"hafw/internal/metrics"
	"hafw/internal/obs"
	"hafw/internal/store"
	"hafw/internal/trace"
	"hafw/internal/transport"
	"hafw/internal/unitdb"
	"hafw/internal/vsync"
	"hafw/internal/wire"
)

// UnitConfig configures one content unit hosted by a server. The
// configurable parameters of the paper live here: Backups (the size of the
// intermediate synchronization level) and PropagationPeriod (the freshness
// of the unit database).
type UnitConfig struct {
	// Unit names the content unit.
	Unit ids.UnitName
	// Service is the application logic for this unit on this server.
	Service Service
	// Backups is the number of backup servers per session (the paper's
	// session groups "typically consist of up to three servers", i.e.
	// Backups ∈ {0, 1, 2}; the VoD instance of [2] is Backups = 0).
	Backups int
	// PropagationPeriod is how often the primary propagates session
	// contexts to the content group (0.5s in the VoD instance). Zero means
	// 500ms.
	PropagationPeriod time.Duration
	// IdleTimeout, if non-zero, makes the primary close sessions with no
	// client traffic for this long (garbage collection for clients that
	// vanished).
	IdleTimeout time.Duration
}

// Config parameterizes a framework server.
type Config struct {
	// Self is this server's process identity.
	Self ids.ProcessID
	// Transport is the attached network endpoint.
	Transport transport.Transport
	// World lists the processes this server initially monitors.
	World []ids.ProcessID
	// Units lists the content units this server hosts (partial
	// replication: different servers may host different unit sets).
	Units []UnitConfig
	// Metrics receives instrumentation; nil creates a private registry.
	Metrics *metrics.Registry
	// Tracer, if set, records promote/demote events for the invariant
	// checkers in package trace.
	Tracer *trace.Recorder
	// Obs, if set, records causal spans for the cross-node trace timeline
	// (nil disables span recording; trace contexts still ride the wire).
	Obs *obs.Tracer

	// FDInterval, FDTimeout, RoundTimeout, AckInterval tune the GCS stack
	// (see gcs.Config).
	FDInterval, FDTimeout, RoundTimeout, AckInterval time.Duration

	// DataDir, if set, makes every hosted unit database durable: mutations
	// are logged to a per-unit write-ahead log under this directory, and a
	// restarted server recovers its databases from disk and rejoins warm
	// (receiving only the sessions it missed instead of a full snapshot).
	DataDir string
	// Fsync selects the store's durability policy when DataDir is set.
	Fsync store.Policy

	// Clock is the time source for propagation scheduling, session
	// activity stamps, and telemetry, passed down to the whole GCS stack.
	// Nil means the wall clock.
	Clock clock.Clock
}

// checkpointEvery bounds WAL growth: after this many logged records the
// server folds the log into a fresh checkpoint.
const checkpointEvery = 4096

// role is a replica's relationship to one session.
type role int

const (
	roleNone role = iota
	roleBackup
	rolePrimary
)

// liveSession is the server-side state of one session this server
// participates in.
type liveSession struct {
	sid          ids.SessionID
	client       ids.ClientID
	app          Session
	role         role
	resp         *responder
	lastStamp    uint64
	lastActivity time.Time
	// lastSent is the context bytes of the last propagated entry; unchanged
	// snapshots are skipped so idle sessions' stamps freeze, keeping
	// rejoin deltas proportional to actual change.
	lastSent []byte
	// sgMembers is the latest session-group view at this member.
	sgMembers []ids.ProcessID
	// lastRefresh is when this replica last applied a propagated context
	// (backups only); the interval between refreshes is the paper's
	// staleness bound T, observed into backup_staleness_seconds.
	lastRefresh time.Time
	// startTC is the trace context of the StartSession request that created
	// this replica; the SessionStarted reply links back to it.
	startTC wire.TraceContext
}

// exchange tracks one in-progress join-time state exchange: first every
// member's Offer (stamp vector), then every member's delta.
type exchange struct {
	viewPV    ids.ViewID
	viewN     uint64
	members   []ids.ProcessID
	offers    map[ids.ProcessID]unitdb.Offer
	deltas    map[ids.ProcessID]unitdb.Snapshot
	sentDelta bool
	// heldProps defers context propagations that slip into the exchange
	// window. Senders suppress propagation while exchanging, but a tick
	// racing the view install can still enter the total order after the
	// view cut; applying it mid-exchange would mutate records the offers
	// already described, so no member's live record would match any offered
	// hash and the designated-sender rule would ship nothing. All members
	// hold the same ordered messages and replay them after the merge.
	heldProps []PropagateCtx
	// begunAt/offersDoneAt time the exchange's two phases (state_exchange:
	// view install to last offer; barrier: last offer to last delta).
	begunAt      time.Time
	offersDoneAt time.Time
	// tc is the trace context the exchange's offers and deltas travel
	// under, linking the exchange across members.
	tc wire.TraceContext
}

// unitState is the server's state for one hosted content unit.
type unitState struct {
	cfg UnitConfig
	db  *unitdb.DB
	// st is the unit's durable log; nil when Config.DataDir is unset.
	st *store.Store
	// needSync marks a database recovered from disk that has not yet been
	// reconciled with another member. Until then the recovered state is a
	// warm cache for the delta exchange, NOT authority for allocation: a
	// restarted server must not promote itself primary of recovered
	// sessions (the group progressed while it was down; acting on stale
	// allocations risks dual primaries and stale-context handoffs).
	needSync bool
	view     vsync.GroupView
	live     map[ids.SessionID]*liveSession
	exch     *exchange
	// pendingStart tracks sessions whose SessionStarted reply (and first
	// activation) waits for the session group to form — paper Section 3.4:
	// members join first, "now the primary server begins sending responses
	// to the client".
	pendingStart map[ids.SessionID]ids.ClientID
	// pendingHandoffs buffers handoffs that arrived before this server
	// learned of the session (a direct message can outrun the totally
	// ordered state exchange that introduces the session here).
	pendingHandoffs map[ids.SessionID]Handoff
}

// sessionRef locates a session from its group name.
type sessionRef struct {
	unit ids.UnitName
	sid  ids.SessionID
}

// Server is one framework server process: it hosts replicas of content
// units, participates in the three group scales, and serves clients.
type Server struct {
	cfg Config
	reg *metrics.Registry
	ctr serverCounters
	clk clock.Clock

	proc *gcs.Process

	mu       sync.Mutex
	units    map[ids.UnitName]*unitState
	sessions map[ids.GroupName]sessionRef
	svcView  vsync.GroupView
	stopped  bool

	stop chan struct{}
	done chan struct{}
}

// serverCounters are the counters bumped per request, session or
// propagation, looked up once so those paths skip the registry's lock.
type serverCounters struct {
	sessionsStarted, sessionsClosed, drafts                      *metrics.Counter
	updatesApplied, updatesPrimary, updatesBackup, responsesSent *metrics.Counter
	propagationsSent, propagationEntriesSent                     *metrics.Counter
	propagationsApplied, propagationEntriesApplied               *metrics.Counter
}

func newServerCounters(reg *metrics.Registry) serverCounters {
	return serverCounters{
		sessionsStarted:           reg.Counter("sessions_started"),
		sessionsClosed:            reg.Counter("sessions_closed"),
		drafts:                    reg.Counter("drafts"),
		updatesApplied:            reg.Counter("updates_applied"),
		updatesPrimary:            reg.Counter("updates_applied_primary"),
		updatesBackup:             reg.Counter("updates_applied_backup"),
		responsesSent:             reg.Counter("responses_sent"),
		propagationsSent:          reg.Counter("propagations_sent"),
		propagationEntriesSent:    reg.Counter("propagation_entries_sent"),
		propagationsApplied:       reg.Counter("propagations_applied"),
		propagationEntriesApplied: reg.Counter("propagation_entries_applied"),
	}
}

// NewServer wires a server. Call Start to bring it up.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Self == ids.Nil {
		return nil, errors.New("core: Config.Self is required")
	}
	if cfg.Transport == nil {
		return nil, errors.New("core: Config.Transport is required")
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Server{
		cfg:      cfg,
		reg:      reg,
		ctr:      newServerCounters(reg),
		clk:      clock.OrReal(cfg.Clock),
		units:    make(map[ids.UnitName]*unitState),
		sessions: make(map[ids.GroupName]sessionRef),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for i := range cfg.Units {
		uc := cfg.Units[i]
		if uc.Unit == "" || uc.Service == nil {
			return nil, errors.New("core: UnitConfig requires Unit and Service")
		}
		if uc.PropagationPeriod == 0 {
			uc.PropagationPeriod = 500 * time.Millisecond
		}
		if _, dup := s.units[uc.Unit]; dup {
			return nil, errors.New("core: duplicate unit " + string(uc.Unit))
		}
		u := &unitState{
			cfg:             uc,
			db:              unitdb.New(uc.Unit),
			live:            make(map[ids.SessionID]*liveSession),
			pendingStart:    make(map[ids.SessionID]ids.ClientID),
			pendingHandoffs: make(map[ids.SessionID]Handoff),
		}
		if cfg.DataDir != "" {
			dir := filepath.Join(cfg.DataDir, unitDirName(uc.Unit))
			st, db, rstats, err := store.Open(store.Options{
				Dir:     dir,
				Unit:    uc.Unit,
				Policy:  cfg.Fsync,
				Metrics: reg,
			})
			if err != nil {
				return nil, err
			}
			u.st, u.db = st, db
			// A non-empty recovered database is stale until reconciled
			// with a peer — unless this server is the whole deployment.
			u.needSync = (db.Len() > 0 || db.Tombstones() > 0) && hasPeers(cfg.World, cfg.Self)
			reg.Counter("recovered_sessions").Add(uint64(db.Len()))
			reg.Counter("recovered_records").Add(uint64(rstats.Replayed))
			if rstats.Torn {
				reg.Counter("recovered_torn_tails").Inc()
			}
		}
		s.units[uc.Unit] = u
	}
	proc, err := gcs.NewProcess(gcs.Config{
		Self:         cfg.Self,
		Transport:    cfg.Transport,
		World:        cfg.World,
		Metrics:      reg,
		OnEvent:      s.onEvent,
		OnDirect:     s.onDirect,
		FDInterval:   cfg.FDInterval,
		FDTimeout:    cfg.FDTimeout,
		RoundTimeout: cfg.RoundTimeout,
		AckInterval:  cfg.AckInterval,
		Clock:        cfg.Clock,
	})
	if err != nil {
		return nil, err
	}
	s.proc = proc
	return s, nil
}

// Start brings the server up: it joins the service group and its content
// groups and begins propagation.
func (s *Server) Start() error {
	s.proc.Start()
	if err := s.proc.Join(ServiceGroup); err != nil {
		return err
	}
	s.mu.Lock()
	units := make([]*unitState, 0, len(s.units))
	for _, u := range s.units {
		units = append(units, u)
	}
	s.mu.Unlock()
	for _, u := range units {
		if err := s.proc.Join(ContentGroup(u.cfg.Unit)); err != nil {
			return err
		}
	}
	go s.propagationLoop()
	return nil
}

// Stop shuts the server down.
func (s *Server) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	s.mu.Unlock()
	close(s.stop)
	<-s.done
	s.proc.Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, u := range s.units {
		if u.st != nil {
			_ = u.st.Close()
		}
	}
}

// unitDirName maps a unit name to a directory-safe name.
func unitDirName(unit ids.UnitName) string {
	return strings.ReplaceAll(string(unit), "/", "_")
}

// hasPeers reports whether world names any process other than self.
func hasPeers(world []ids.ProcessID, self ids.ProcessID) bool {
	for _, p := range world {
		if p != self {
			return true
		}
	}
	return false
}

// persistLocked appends one mutation record to the unit's durable log and
// takes a checkpoint when the log has grown enough.
func (s *Server) persistLocked(u *unitState, rec store.Record) {
	if u.st == nil {
		return
	}
	if err := u.st.Append(rec); err != nil {
		s.reg.Counter("wal_errors").Inc()
		return
	}
	if u.st.AppendsSinceCheckpoint() >= checkpointEvery {
		s.checkpointLocked(u)
	}
}

// checkpointLocked folds the unit's WAL into a fresh full-snapshot
// checkpoint.
func (s *Server) checkpointLocked(u *unitState) {
	if u.st == nil {
		return
	}
	if err := u.st.Checkpoint(u.db.Snapshot()); err != nil {
		s.reg.Counter("wal_errors").Inc()
		return
	}
	s.reg.Counter("checkpoints_taken").Inc()
}

// Self returns this server's process ID.
func (s *Server) Self() ids.ProcessID { return s.cfg.Self }

// Metrics returns the server's metrics registry.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// AddPeer adds a newly spawned server to the monitored world.
func (s *Server) AddPeer(p ids.ProcessID) { s.proc.AddPeer(p) }

// GroupMembers exposes the GCS's view of a group's membership (test and
// monitoring hook).
func (s *Server) GroupMembers(g ids.GroupName) []ids.ProcessID {
	return s.proc.GroupMembers(g)
}

// PrimaryOf reports the unit database's current primary for a session
// (test and monitoring hook).
//
//hafw:deterministic
func (s *Server) PrimaryOf(unit ids.UnitName, sid ids.SessionID) ids.ProcessID {
	s.mu.Lock()
	defer s.mu.Unlock()
	u := s.units[unit]
	if u == nil {
		return ids.Nil
	}
	sess := u.db.Get(sid)
	if sess == nil {
		return ids.Nil
	}
	return sess.Primary
}

// DBChecksum returns the unit database checksum (replica-consistency
// assertions in tests).
func (s *Server) DBChecksum(unit ids.UnitName) [32]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	u := s.units[unit]
	if u == nil {
		return [32]byte{}
	}
	return u.db.Checksum()
}

// DBSnapshot returns a copy of the unit database's full state (test and
// monitoring hook).
func (s *Server) DBSnapshot(unit ids.UnitName) unitdb.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	u := s.units[unit]
	if u == nil {
		return unitdb.Snapshot{}
	}
	return u.db.Snapshot()
}

// DBSessions returns the unit database's session count.
func (s *Server) DBSessions(unit ids.UnitName) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	u := s.units[unit]
	if u == nil {
		return 0
	}
	return u.db.Len()
}

// --- event handling (single goroutine via gcs) ---

func (s *Server) onEvent(e gcs.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch ev := e.(type) {
	case gcs.ViewEvent:
		s.onViewLocked(ev)
	case gcs.MessageEvent:
		s.onMessageLocked(ev)
	}
}

func (s *Server) onViewLocked(ev gcs.ViewEvent) {
	// Measure how long view-change handling blocks the event loop; the
	// spans feed the failover-latency numbers in the experiments.
	sp := s.cfg.Tracer.StartSpan(s.cfg.Self, 0, "core.view-change")
	defer sp.End()
	osp := s.cfg.Obs.StartRoot("core.view-change")
	defer osp.End()
	g := ev.View.Group
	switch {
	case g == ServiceGroup:
		s.svcView = ev.View
	case strings.HasPrefix(string(g), "content/"):
		unit := ids.UnitName(strings.TrimPrefix(string(g), "content/"))
		if u := s.units[unit]; u != nil {
			s.onContentViewLocked(u, ev, osp.Context())
		}
	default:
		// Session-group view: track membership and release any pending
		// session start once the group has formed.
		if ref, ok := s.sessions[g]; ok {
			if u := s.units[ref.unit]; u != nil {
				if live := u.live[ref.sid]; live != nil {
					live.sgMembers = ev.View.Members
				}
				s.checkPendingLocked(u, ref.sid)
			}
		}
	}
}

// checkPendingLocked promotes and replies for a pending session start once
// every (still-alive) allocated member has joined the session group.
func (s *Server) checkPendingLocked(u *unitState, sid ids.SessionID) {
	client, pending := u.pendingStart[sid]
	if !pending {
		return
	}
	sess := u.db.Get(sid)
	if sess == nil {
		delete(u.pendingStart, sid)
		return
	}
	live := u.live[sid]
	if live == nil {
		// This server is no longer involved; someone else replies.
		delete(u.pendingStart, sid)
		return
	}
	for _, p := range sess.SessionGroup() {
		if !containsProc(u.view.Members, p) {
			continue // crashed before joining; reallocation handles it
		}
		if !containsProc(live.sgMembers, p) {
			return // group not formed yet
		}
	}
	delete(u.pendingStart, sid)
	if sess.Primary == s.cfg.Self {
		if live.resp == nil {
			s.promoteLocked(u, live, sess.Stamp)
		}
		_ = s.proc.Send(ids.ClientEndpoint(client), SessionStarted{
			Unit: u.cfg.Unit, Session: sid, Group: SessionGroup(u.cfg.Unit, sid),
			TC:      s.cfg.Obs.ChildContext(live.startTC),
			Members: live.sgMembers,
		})
	}
}

// onContentViewLocked implements Section 3.4: crash-only changes
// reallocate immediately from the (identical, thanks to virtual synchrony)
// unit databases; changes with joiners first run a state exchange.
func (s *Server) onContentViewLocked(u *unitState, ev gcs.ViewEvent, tc wire.TraceContext) {
	u.view = ev.View
	s.reg.Counter("content_views").Inc()
	if len(ev.Joined) > 0 || u.exch != nil {
		// Joiners present (or a superseded exchange must be restarted):
		// exchange per-session stamp vectors first; the deltas follow once
		// every member's offer is in.
		s.reg.Counter("state_exchanges").Inc()
		// The view change flushed every session group, so live replicas of
		// one session hold identical contexts — possibly ahead of the last
		// periodic propagation. Fold that tail into the database before
		// offering: the exchange must ship the freshest context, or a
		// session drafted elsewhere (its old primary gone, its surviving
		// backup not reallocated) would restore a stale one and drop
		// updates the primary had already acked.
		for sid, live := range u.live {
			sess := u.db.Get(sid)
			if sess == nil {
				continue
			}
			ctx := live.app.Snapshot()
			if bytes.Equal(ctx, sess.Context) {
				continue
			}
			next := sess.Stamp + 1
			if u.db.UpdateContext(sid, ctx, next) {
				s.persistLocked(u, store.Record{Op: store.OpCtx, SID: sid, Ctx: ctx, Stamp: next})
				live.lastStamp = next
				live.lastSent = nil
			}
		}
		var held []PropagateCtx
		if u.exch != nil {
			// Carry deferred propagations into the superseding exchange:
			// they were ordered before this view at every member, so every
			// member carries the same list.
			held = u.exch.heldProps
		}
		u.exch = &exchange{
			viewPV:    ev.View.ID.PV,
			viewN:     ev.View.ID.N,
			members:   ev.View.Members,
			offers:    make(map[ids.ProcessID]unitdb.Offer, len(ev.View.Members)),
			deltas:    make(map[ids.ProcessID]unitdb.Snapshot, len(ev.View.Members)),
			heldProps: held,
			begunAt:   s.clk.Now(),
			tc:        s.cfg.Obs.ChildContext(tc),
		}
		offer := StateOffer{
			Unit: u.cfg.Unit, ViewPV: ev.View.ID.PV, ViewN: ev.View.ID.N, Offer: u.db.Offer(),
		}
		s.noteStateBytes("state_bytes_sent", offer)
		_ = s.proc.MulticastTC(ContentGroup(u.cfg.Unit), offer, u.exch.tc)
		return
	}
	if u.needSync {
		// Recovered state is not yet reconciled with any peer; do not act
		// on its allocations.
		return
	}
	// Failures only: immediate deterministic takeover, no extra messages.
	s.reg.Counter("immediate_reallocs").Inc()
	changes := u.db.Reallocate(ev.View.Members, u.cfg.Backups)
	s.applyChangesLocked(u, changes, tc)
}

func (s *Server) onMessageLocked(ev gcs.MessageEvent) {
	g := ev.Group
	switch {
	case g == ServiceGroup:
		s.onServiceMsgLocked(ev)
	case strings.HasPrefix(string(g), "content/"):
		unit := ids.UnitName(strings.TrimPrefix(string(g), "content/"))
		if u := s.units[unit]; u != nil {
			s.onContentMsgLocked(u, ev)
		}
	default:
		if ref, ok := s.sessions[g]; ok {
			if u := s.units[ref.unit]; u != nil {
				s.onSessionMsgLocked(u, ref.sid, ev)
			}
		}
	}
}

func (s *Server) onServiceMsgLocked(ev gcs.MessageEvent) {
	switch ev.Payload.(type) {
	case ListUnits:
		// Exactly one member answers: the least member of the current
		// service group view (every member sees the same view, so the
		// choice is consistent).
		if len(s.svcView.Members) == 0 || s.svcView.Members[0] != s.cfg.Self {
			return
		}
		client, ok := ev.From.Client()
		if !ok {
			return
		}
		var infos []UnitInfo
		for _, g := range s.proc.GroupsWithPrefix("content/") {
			members := s.proc.GroupMembers(g)
			if len(members) == 0 {
				continue
			}
			infos = append(infos, UnitInfo{
				Unit:     ids.UnitName(strings.TrimPrefix(string(g), "content/")),
				Group:    g,
				Replicas: len(members),
			})
		}
		sort.Slice(infos, func(i, j int) bool { return infos[i].Unit < infos[j].Unit })
		_ = s.proc.Send(ids.ClientEndpoint(client), UnitList{Units: infos})
	}
}

func (s *Server) onContentMsgLocked(u *unitState, ev gcs.MessageEvent) {
	switch msg := ev.Payload.(type) {
	case StartSession:
		s.onStartSessionLocked(u, ev.From, msg, ev.TC)
	case PropagateCtx:
		if u.exch != nil {
			u.exch.heldProps = append(u.exch.heldProps, msg)
			s.reg.Counter("propagations_held").Inc()
			return
		}
		s.onPropagateLocked(u, msg)
	case SessionClosed:
		s.onSessionClosedLocked(u, msg.Session)
	case StateOffer:
		s.onStateOfferLocked(u, ev.From, msg, ev.TC)
	case StateDelta:
		s.onStateDeltaLocked(u, ev.From, msg, ev.TC)
	}
}

// onStartSessionLocked is delivered identically at every content-group
// member: all create the same session record and compute the same
// allocation; the selected servers join the session group; the primary
// replies to the client.
func (s *Server) onStartSessionLocked(u *unitState, from ids.EndpointID, msg StartSession, tc wire.TraceContext) {
	client, ok := from.Client()
	if !ok {
		return
	}
	sp := s.cfg.Obs.StartChild("core.start-session", tc)
	defer sp.End()
	sess := u.db.CreateSession(client)
	s.flushPendingHandoffsLocked(u)
	primary, backups := u.db.Allocate(sess.ID, u.view.Members, u.cfg.Backups)
	s.persistLocked(u, store.Record{Op: store.OpCreate, SID: sess.ID, Client: client})
	s.persistLocked(u, store.Record{Op: store.OpAlloc, SID: sess.ID, Primary: primary, Backups: backups})
	s.ctr.sessionsStarted.Inc()

	switch {
	case primary == s.cfg.Self:
		live := s.draftLocked(u, sess)
		live.role = rolePrimary
		live.startTC = tc
		u.pendingStart[sess.ID] = client
	case containsProc(backups, s.cfg.Self):
		live := s.draftLocked(u, sess)
		live.role = roleBackup
		live.startTC = tc
		u.pendingStart[sess.ID] = client
	}
}

// onPropagateLocked applies a primary's context propagation to the unit
// database, and refreshes live backup replicas.
func (s *Server) onPropagateLocked(u *unitState, msg PropagateCtx) {
	now := s.clk.Now()
	if msg.SentUnixNano > 0 {
		// Lag from the primary's send to this delivery: ordering, transport,
		// and event-loop queuing. Clock skew can make it negative across
		// machines; clamp rather than pollute the histogram.
		if lag := now.Sub(time.Unix(0, msg.SentUnixNano)); lag > 0 {
			s.reg.Histogram("propagation_lag_seconds").Observe(lag)
		}
	}
	for _, e := range msg.Entries {
		if !u.db.UpdateContext(e.Session, e.Ctx, e.Stamp) {
			continue
		}
		s.persistLocked(u, store.Record{Op: store.OpCtx, SID: e.Session, Ctx: e.Ctx, Stamp: e.Stamp})
		if live := u.live[e.Session]; live != nil && live.role == roleBackup {
			// The gap between successive refreshes is how stale this backup's
			// context was just before the refresh — the paper's propagation
			// period T bounds it for sessions under active mutation.
			if !live.lastRefresh.IsZero() {
				s.reg.Histogram("backup_staleness_seconds").Observe(now.Sub(live.lastRefresh))
			}
			live.lastRefresh = now
			live.app.Sync(e.Ctx)
		}
	}
	s.ctr.propagationsApplied.Inc()
	s.ctr.propagationEntriesApplied.Add(uint64(len(msg.Entries)))
}

func (s *Server) onSessionClosedLocked(u *unitState, sid ids.SessionID) {
	u.db.Remove(sid)
	s.persistLocked(u, store.Record{Op: store.OpClose, SID: sid})
	delete(u.pendingStart, sid)
	delete(u.pendingHandoffs, sid)
	if live := u.live[sid]; live != nil {
		s.dropLiveLocked(u, live)
	}
	s.ctr.sessionsClosed.Inc()
}

// onStateOfferLocked collects stamp vectors; once every member of the
// exchange's view has offered, each member computes the records it alone
// is responsible for shipping and multicasts them as its delta.
func (s *Server) onStateOfferLocked(u *unitState, from ids.EndpointID, msg StateOffer, tc wire.TraceContext) {
	p, ok := from.Process()
	if !ok || u.exch == nil || msg.ViewPV != u.exch.viewPV || msg.ViewN != u.exch.viewN {
		return
	}
	if p != s.cfg.Self { // self-delivery is not network transfer
		s.noteStateBytes("state_bytes_received", msg)
		sp := s.cfg.Obs.StartChild("core.state-offer", tc)
		defer sp.End()
	}
	u.exch.offers[p] = msg.Offer
	if u.exch.sentDelta {
		return
	}
	for _, m := range u.exch.members {
		if _, have := u.exch.offers[m]; !have {
			return
		}
	}
	u.exch.sentDelta = true
	u.exch.offersDoneAt = s.clk.Now()
	s.reg.Histogram(`viewchange_duration_seconds{phase="state_exchange"}`).Observe(s.clk.Since(u.exch.begunAt))
	delta := StateDelta{
		Unit: u.cfg.Unit, ViewPV: u.exch.viewPV, ViewN: u.exch.viewN,
		Snap: u.db.DeltaFor(s.cfg.Self, u.exch.offers),
	}
	s.noteStateBytes("state_bytes_sent", delta)
	s.reg.Counter("state_sessions_sent").Add(uint64(len(delta.Snap.Sessions)))
	_ = s.proc.MulticastTC(ContentGroup(u.cfg.Unit), delta, u.exch.tc)
}

// onStateDeltaLocked collects deltas; when every member's delta is in
// (empty ones included — they are the barrier), all members merge
// identically and reallocate.
func (s *Server) onStateDeltaLocked(u *unitState, from ids.EndpointID, msg StateDelta, tc wire.TraceContext) {
	p, ok := from.Process()
	if !ok || u.exch == nil || msg.ViewPV != u.exch.viewPV || msg.ViewN != u.exch.viewN {
		return
	}
	if p != s.cfg.Self { // self-delivery is not network transfer
		s.noteStateBytes("state_bytes_received", msg)
		s.reg.Counter("state_sessions_received").Add(uint64(len(msg.Snap.Sessions)))
		sp := s.cfg.Obs.StartChild("core.state-delta", tc)
		defer sp.End()
	}
	u.exch.deltas[p] = msg.Snap
	for _, m := range u.exch.members {
		if _, have := u.exch.deltas[m]; !have {
			return
		}
	}
	// Complete: merge in sorted member order (merge is order-independent,
	// but determinism is cheap to make obvious).
	members := u.exch.members
	for _, m := range members {
		if m == s.cfg.Self {
			continue
		}
		u.db.Merge(u.exch.deltas[m])
	}
	// The barrier phase ran from the last offer (when deltas could first
	// flow) to this merge; the whole exchange becomes one span.
	if !u.exch.offersDoneAt.IsZero() {
		s.reg.Histogram(`viewchange_duration_seconds{phase="barrier"}`).Observe(s.clk.Since(u.exch.offersDoneAt))
	}
	s.cfg.Obs.RecordSpan("core.state-exchange", u.exch.tc, u.exch.begunAt)
	exchTC := u.exch.tc
	held := u.exch.heldProps
	u.exch = nil
	// Replay propagations deferred during the exchange. Every member holds
	// the same ordered list and the same merged database, so the replay is
	// identical everywhere.
	for i := range held {
		s.onPropagateLocked(u, held[i])
	}
	if u.needSync {
		if len(members) == 1 && members[0] == s.cfg.Self {
			// Still alone: nothing was reconciled. The recovered database
			// stays passive — no reallocation, no self-promotion — until a
			// view with a peer completes an exchange. A lone restarted
			// server must not resurrect primaryship over sessions the rest
			// of the group may have progressed while it was down.
			return
		}
		u.needSync = false
	}
	// The merged state supersedes the log's view of the world; fold it
	// into a checkpoint so recovery starts from the reconciled database.
	s.checkpointLocked(u)
	// Handoffs may have raced ahead of the exchange; apply them before
	// drafting so Restore sees the freshest context.
	s.flushPendingHandoffsLocked(u)
	// The merge may have brought fresher contexts than a live replica
	// holds (for example, a replica that was briefly partitioned alone and
	// missed a propagation). Refresh such replicas so primaries never keep
	// serving from a stale context after reconciliation.
	for sid, live := range u.live {
		if rec := u.db.Get(sid); rec != nil && rec.Stamp > live.lastStamp {
			live.lastStamp = rec.Stamp
			live.lastSent = nil
			live.app.Sync(rec.Context)
		}
	}
	// Joins rebalance the load fairly (Section 3.4), at the cost of
	// migrating some sessions away from live primaries.
	changes := u.db.ReallocateBalanced(members, u.cfg.Backups)
	s.applyChangesLocked(u, changes, exchTC)
}

func (s *Server) onSessionMsgLocked(u *unitState, sid ids.SessionID, ev gcs.MessageEvent) {
	live := u.live[sid]
	if live == nil {
		return
	}
	switch msg := ev.Payload.(type) {
	case ClientRequest:
		if msg.Session != sid {
			return
		}
		sp := s.cfg.Obs.StartChild("core.request", ev.TC)
		defer sp.End()
		live.lastActivity = s.clk.Now()
		if live.role == rolePrimary && live.resp != nil {
			// Responses emitted while (or after) applying this update are
			// caused by it; the responder stamps them with this span.
			live.resp.setTC(sp.Context())
		}
		live.app.ApplyUpdate(msg.Body)
		s.ctr.updatesApplied.Inc()
		if live.role == rolePrimary {
			s.ctr.updatesPrimary.Inc()
		} else {
			s.ctr.updatesBackup.Inc()
		}
	case EndSession:
		if live.role != rolePrimary {
			return
		}
		sp := s.cfg.Obs.StartChild("core.end-session", ev.TC)
		defer sp.End()
		if c, ok := ev.From.Client(); ok {
			_ = s.proc.Send(ids.ClientEndpoint(c), SessionEnded{Session: sid, TC: sp.Context()})
		}
		_ = s.proc.MulticastTC(ContentGroup(u.cfg.Unit), SessionClosed{Unit: u.cfg.Unit, Session: sid}, sp.Context())
	}
}

// onDirect handles point-to-point messages (handoffs from demoted
// primaries).
func (s *Server) onDirect(from ids.EndpointID, m wire.Message) {
	ho, ok := m.(Handoff)
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	u := s.units[ho.Unit]
	if u == nil {
		return
	}
	sp := s.cfg.Obs.StartChild("core.handoff", ho.TC)
	defer sp.End()
	if u.exch != nil || u.db.Get(ho.Session) == nil {
		// Either the direct handoff outran the ordered state exchange that
		// will introduce this session here, or an exchange is in flight.
		// Hold it: handoffs are unordered, and applying one mid-exchange
		// would mutate a record the offers already described, breaking the
		// designated-sender agreement.
		u.pendingHandoffs[ho.Session] = ho
		return
	}
	s.applyHandoffLocked(u, ho)
}

// applyHandoffLocked folds a handoff's context into the database and any
// live replica.
func (s *Server) applyHandoffLocked(u *unitState, ho Handoff) {
	if u.db.UpdateContext(ho.Session, ho.Ctx, ho.Stamp) {
		s.persistLocked(u, store.Record{Op: store.OpCtx, SID: ho.Session, Ctx: ho.Ctx, Stamp: ho.Stamp})
	}
	s.reg.Counter("handoffs_received").Inc()
	live := u.live[ho.Session]
	if live == nil {
		return
	}
	if live.lastStamp < ho.Stamp {
		live.lastStamp = ho.Stamp
		// The handoff advanced our database past what the other replicas
		// hold. Force the next propagation even if the bytes are unchanged,
		// so every member's stamp catches up — otherwise the dirty-skip
		// would freeze them one generation behind forever.
		live.lastSent = nil
	}
	live.app.Sync(ho.Ctx)
	if live.role == rolePrimary && live.resp != nil {
		live.resp.bumpSeq(ho.RespSeq)
	}
}

// flushPendingHandoffsLocked applies buffered handoffs whose sessions now
// exist. During a state exchange everything stays buffered: handoffs are
// unordered direct messages, and applying one mid-exchange would mutate
// records the offers already described.
func (s *Server) flushPendingHandoffsLocked(u *unitState) {
	if u.exch != nil {
		return
	}
	for sid, ho := range u.pendingHandoffs {
		if u.db.Get(sid) == nil {
			continue
		}
		delete(u.pendingHandoffs, sid)
		s.applyHandoffLocked(u, ho)
	}
}

// --- allocation application ---

// applyChangesLocked enacts a deterministic reallocation at this server:
// drafting replicas, promoting/demoting primaries, and adjusting session
// group membership (joins before leaves, per Section 3.4).
func (s *Server) applyChangesLocked(u *unitState, changes []unitdb.Change, tc wire.TraceContext) {
	for _, c := range changes {
		sess := u.db.Get(c.SessionID)
		if sess == nil {
			continue
		}
		s.persistLocked(u, store.Record{
			Op: store.OpAlloc, SID: c.SessionID,
			Primary: sess.Primary, Backups: sess.Backups,
		})
		live := u.live[c.SessionID]
		inGroup := sess.InGroup(s.cfg.Self)

		switch {
		case sess.Primary == s.cfg.Self:
			if live == nil {
				live = s.draftLocked(u, sess)
			}
			live.role = rolePrimary
			if _, pending := u.pendingStart[c.SessionID]; !pending && live.resp == nil {
				if c.OldPrimary != s.cfg.Self && c.PrimaryChanged() {
					s.reg.Counter("takeovers").Inc()
				}
				s.promoteLocked(u, live, sess.Stamp)
			}
		case inGroup: // backup here
			if live == nil {
				live = s.draftLocked(u, sess)
				live.role = roleBackup
			} else if live.role == rolePrimary {
				s.demoteLocked(u, live, sess.Primary, tc)
				live.role = roleBackup
			} else {
				live.role = roleBackup
			}
		default: // not in the session group anymore
			if live != nil {
				if live.role == rolePrimary {
					s.demoteLocked(u, live, sess.Primary, tc)
				}
				s.dropLiveLocked(u, live)
			}
		}
		if c.PrimaryChanged() {
			s.reg.Counter("migrations").Inc()
		}
	}
	// Allocation moved: pending starts may have become satisfiable (for
	// example, an allocated backup crashed before joining).
	for sid := range u.pendingStart {
		s.checkPendingLocked(u, sid)
	}
}

// draftLocked creates the live replica for a session this server now
// participates in, seeding it from the unit database's propagated context,
// and joins the session group.
func (s *Server) draftLocked(u *unitState, sess *unitdb.Session) *liveSession {
	live := &liveSession{
		sid:          sess.ID,
		client:       sess.Client,
		app:          u.cfg.Service.NewSession(u.cfg.Unit, sess.ID, sess.Client),
		role:         roleNone,
		lastStamp:    sess.Stamp,
		lastActivity: s.clk.Now(),
	}
	live.app.Restore(sess.Context)
	u.live[sess.ID] = live
	group := SessionGroup(u.cfg.Unit, sess.ID)
	s.sessions[group] = sessionRef{unit: u.cfg.Unit, sid: sess.ID}
	_ = s.proc.Join(group)
	s.ctr.drafts.Inc()
	return live
}

// promoteLocked makes this server the session's primary.
func (s *Server) promoteLocked(u *unitState, live *liveSession, stamp uint64) {
	live.role = rolePrimary
	live.lastSent = nil // force a propagation under the new primaryship
	live.resp = newResponder(s, u.cfg.Unit, live.sid, live.client, stamp)
	live.app.Activate(live.resp)
	s.reg.Counter("promotions").Inc()
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.Record(s.cfg.Self, trace.KindPromote, live.sid, string(u.cfg.Unit))
	}
}

// demoteLocked revokes primaryship and hands the freshest context to the
// new primary if it is a live migration (both servers up). The handoff
// carries tc (the view change or exchange causing the migration) so the
// receiver's takeover links into the same trace.
func (s *Server) demoteLocked(u *unitState, live *liveSession, newPrimary ids.ProcessID, tc wire.TraceContext) {
	if live.resp != nil {
		live.resp.deactivate()
	}
	live.app.Deactivate()
	s.reg.Counter("demotions").Inc()
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.Record(s.cfg.Self, trace.KindDemote, live.sid, string(u.cfg.Unit))
	}
	if newPrimary != ids.Nil && newPrimary != s.cfg.Self {
		live.lastStamp++
		var respSeq uint64
		if live.resp != nil {
			respSeq = live.resp.seqValue()
		}
		_ = s.proc.Send(ids.ProcessEndpoint(newPrimary), Handoff{
			Unit: u.cfg.Unit, Session: live.sid,
			Ctx: live.app.Snapshot(), Stamp: live.lastStamp, RespSeq: respSeq,
			TC: s.cfg.Obs.ChildContext(tc),
		})
		s.reg.Counter("handoffs_sent").Inc()
	}
	live.resp = nil
}

// dropLiveLocked removes this server's replica of a session and leaves its
// group.
func (s *Server) dropLiveLocked(u *unitState, live *liveSession) {
	if live.resp != nil {
		live.resp.deactivate()
		live.resp = nil
		if live.role == rolePrimary && s.cfg.Tracer != nil {
			s.cfg.Tracer.Record(s.cfg.Self, trace.KindDemote, live.sid, string(u.cfg.Unit))
		}
	}
	live.app.Close()
	delete(u.live, live.sid)
	group := SessionGroup(u.cfg.Unit, live.sid)
	delete(s.sessions, group)
	_ = s.proc.Leave(group)
}

// --- context propagation ---

// propagationLoop drives each unit's periodic context propagation (paper
// Section 3.1). It ticks at the finest unit period.
func (s *Server) propagationLoop() {
	defer close(s.done)
	period := time.Duration(0)
	s.mu.Lock()
	for _, u := range s.units {
		if period == 0 || u.cfg.PropagationPeriod < period {
			period = u.cfg.PropagationPeriod
		}
	}
	s.mu.Unlock()
	if period == 0 {
		period = 500 * time.Millisecond
	}
	ticker := s.clk.NewTicker(period)
	defer ticker.Stop()
	last := make(map[ids.UnitName]time.Time)
	for {
		select {
		case <-s.stop:
			return
		case now := <-ticker.C():
			s.mu.Lock()
			type outMsg struct {
				g ids.GroupName
				m wire.Message
			}
			var outs []outMsg
			for name, u := range s.units {
				if now.Sub(last[name]) < u.cfg.PropagationPeriod-period/2 {
					continue
				}
				last[name] = now
				if m := s.buildPropagationLocked(u, now); m != nil {
					outs = append(outs, outMsg{ContentGroup(name), m})
				}
			}
			s.mu.Unlock()
			for _, o := range outs {
				// Each propagation roots its own trace; receivers' applies
				// become its children via the wire context.
				tc := s.cfg.Obs.RootContext()
				t0 := s.clk.Now()
				_ = s.proc.MulticastTC(o.g, o.m, tc)
				s.cfg.Obs.RecordSpan("core.propagate", tc, t0)
			}
		}
	}
}

// buildPropagationLocked snapshots every session this server is primary
// for, and garbage-collects idle sessions.
func (s *Server) buildPropagationLocked(u *unitState, now time.Time) wire.Message {
	if u.exch != nil {
		// A state exchange is a barrier. Propagating now would advance
		// stamps past the maxima the offers recorded; every member's
		// designated-sender computation would then find no holder of the
		// winning record, nobody would ship it, and divergent replicas
		// would stay divergent. Updates resume next tick, post-merge.
		return nil
	}
	var entries []CtxEntry
	for _, live := range u.live {
		if live.role != rolePrimary {
			continue
		}
		if u.cfg.IdleTimeout > 0 && now.Sub(live.lastActivity) > u.cfg.IdleTimeout {
			_ = s.proc.Multicast(ContentGroup(u.cfg.Unit), SessionClosed{Unit: u.cfg.Unit, Session: live.sid})
			continue
		}
		snap := live.app.Snapshot()
		if live.lastSent != nil && bytes.Equal(snap, live.lastSent) {
			// Unchanged since the last propagation: skip the entry so the
			// session's stamp freezes and rejoin deltas stay proportional
			// to real change, not elapsed time.
			s.reg.Counter("propagation_entries_skipped").Inc()
			continue
		}
		live.lastStamp++
		live.lastSent = append([]byte(nil), snap...)
		entries = append(entries, CtxEntry{
			Session: live.sid,
			Ctx:     snap,
			Stamp:   live.lastStamp,
		})
	}
	if len(entries) == 0 {
		return nil
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Session < entries[j].Session })
	s.ctr.propagationsSent.Inc()
	s.ctr.propagationEntriesSent.Add(uint64(len(entries)))
	return PropagateCtx{Unit: u.cfg.Unit, Entries: entries, SentUnixNano: now.UnixNano()}
}

// --- responder ---

// responder implements Responder for one (server, session) pair.
type responder struct {
	srv    *Server
	unit   ids.UnitName
	sid    ids.SessionID
	client ids.ClientID

	mu     sync.Mutex
	active bool
	seq    uint64
	// tc is the span of the client request most recently applied under this
	// responder; outgoing responses carry it as their causal parent.
	tc wire.TraceContext
}

func newResponder(s *Server, unit ids.UnitName, sid ids.SessionID, client ids.ClientID, seq uint64) *responder {
	return &responder{srv: s, unit: unit, sid: sid, client: client, active: true, seq: seq}
}

var _ Responder = (*responder)(nil)

// Send implements Responder.
func (r *responder) Send(body wire.Message) bool {
	r.mu.Lock()
	if !r.active {
		r.mu.Unlock()
		return false
	}
	r.seq++
	seq := r.seq
	tc := r.tc
	r.mu.Unlock()
	_ = r.srv.proc.Send(ids.ClientEndpoint(r.client), Response{Session: r.sid, Seq: seq, Body: body, TC: tc})
	r.srv.ctr.responsesSent.Inc()
	return true
}

// Stream implements Responder. Each body claims its sequence number under
// the responder lock, so a demotion between bodies truncates the burst at
// a clean prefix — the promoted primary's responder resumes numbering
// after the handoff stamp with no seq reuse.
func (r *responder) Stream(next func() (wire.Message, bool)) int {
	n := 0
	for {
		body, ok := next()
		if !ok {
			return n
		}
		if !r.Send(body) {
			return n
		}
		n++
	}
}

// setTC records the span causing subsequent responses.
func (r *responder) setTC(tc wire.TraceContext) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tc = tc
}

// Client implements Responder.
func (r *responder) Client() ids.ClientID { return r.client }

// Session implements Responder.
func (r *responder) Session() ids.SessionID { return r.sid }

func (r *responder) deactivate() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.active = false
}

func (r *responder) seqValue() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

func (r *responder) bumpSeq(seq uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if seq > r.seq {
		r.seq = seq
	}
}

// Health reports nil while the server is running (the /healthz body).
func (s *Server) Health() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return errors.New("core: server stopped")
	}
	return nil
}

// Status captures this node's view of the cluster for /statusz: group
// views at every scale, hosted units, live sessions with roles, and
// durable-store state. Read-only; safe to call from the ops server.
func (s *Server) Status() obs.NodeStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clk.Now()
	st := obs.NodeStatus{Node: uint64(s.cfg.Self), DirGroups: s.proc.DirGroups()}

	addGroup := func(v vsync.GroupView) {
		if v.Group == "" {
			return
		}
		ms := make([]uint64, 0, len(v.Members))
		for _, m := range v.Members {
			ms = append(ms, uint64(m))
		}
		st.Groups = append(st.Groups, obs.GroupStatus{
			Group:   string(v.Group),
			View:    v.ID.String(),
			Members: ms,
		})
	}
	addGroup(s.svcView)

	names := make([]ids.UnitName, 0, len(s.units))
	for name := range s.units {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	for _, name := range names {
		u := s.units[name]
		addGroup(u.view)
		view := ""
		if !u.view.ID.IsZero() {
			view = u.view.ID.String()
		}
		st.Units = append(st.Units, obs.UnitStatus{
			Unit:            string(name),
			Service:         fmt.Sprintf("%T", u.cfg.Service),
			View:            view,
			Synced:          !u.needSync,
			ExchangeOpen:    u.exch != nil,
			DBSessions:      u.db.Len(),
			Live:            len(u.live),
			Tombstones:      u.db.Tombstones(),
			TombstoneRanges: u.db.TombstoneRanges(),
		})
		sids := make([]ids.SessionID, 0, len(u.live))
		for sid := range u.live {
			sids = append(sids, sid)
		}
		sort.Slice(sids, func(i, j int) bool { return sids[i] < sids[j] })
		for _, sid := range sids {
			live := u.live[sid]
			role := "backup"
			if live.role == rolePrimary {
				role = "primary"
			}
			ms := make([]uint64, 0, len(live.sgMembers))
			for _, m := range live.sgMembers {
				ms = append(ms, uint64(m))
			}
			st.Groups = append(st.Groups, obs.GroupStatus{
				Group:   string(SessionGroup(name, sid)),
				Members: ms,
			})
			st.Sessions = append(st.Sessions, obs.SessionStatus{
				Session: fmt.Sprintf("%d", sid),
				Unit:    string(name),
				Role:    role,
				Client:  fmt.Sprintf("%d", live.client),
				Stamp:   live.lastStamp,
				IdleMS:  now.Sub(live.lastActivity).Milliseconds(),
			})
		}
		if u.st != nil {
			ss := u.st.Stats()
			st.Stores = append(st.Stores, obs.StoreStatus{
				Unit:                   string(name),
				Dir:                    ss.Dir,
				Policy:                 ss.Policy,
				Segment:                ss.Segment,
				SegmentBytes:           ss.SegmentBytes,
				AppendsSinceCheckpoint: ss.AppendsSinceCheckpoint,
			})
		}
	}
	return st
}

// noteStateBytes accounts a state-exchange message's encoded size against
// a direction counter. View changes are rare, so the extra encode is
// cheap next to the transfer it measures.
func (s *Server) noteStateBytes(counter string, m wire.Message) {
	if b, err := wire.EncodeMessage(m); err == nil {
		s.reg.Counter(counter).Add(uint64(len(b)))
	}
}

// containsProc reports membership in a process slice.
func containsProc(ps []ids.ProcessID, p ids.ProcessID) bool {
	for _, q := range ps {
		if q == p {
			return true
		}
	}
	return false
}
