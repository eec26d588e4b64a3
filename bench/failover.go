package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hafw/internal/core"
	"hafw/internal/ids"
	"hafw/internal/loadgen"
	"hafw/internal/trace"
	"hafw/internal/wire"
)

// The failover3 plan. Requests arrive on a schedule whatever the cluster
// is doing, so the ones due while no primary exists are counted. Every
// slice holds exactly one stop, a quarter into it, and the restart, three
// quarters into it, so all slices are alike: a median over a mix of slices
// with and without a takeover would sit on the edge between the two kinds.
const (
	failoverRate     = 1000.0                 // ops/s over both sessions
	failoverResend   = 5 * time.Millisecond   // the driver resends an unanswered op this often
	failoverDeadline = 2 * time.Second        // an op unanswered this long has failed
	duplicateGrace   = time.Second            // a takeover window: duplicates are legal this long after a fault action or a view change
	plannedSettle    = 300 * time.Millisecond // a view change later than this after a stop or restart is not that action's doing
)

// faultPlan lists, from the window origin, when servers are stopped in a
// window of the given slices, and how long each stays down.
func faultPlan(slice time.Duration, slices int) (stops []time.Duration, downtime time.Duration) {
	for k := 0; k < slices; k++ {
		stops = append(stops, time.Duration(k)*slice+slice/4)
	}
	return stops, slice / 2
}

// foOp is one open-loop operation's bookkeeping. The generator owns
// lastSent and sends; the response handler sets answered.
type foOp struct {
	answered  atomic.Int64 // ns from the stream origin of the first response, plus 1; 0 = none yet
	sends     atomic.Int32 // request messages sent for this op
	responses atomic.Int32
	lastSent  time.Duration // when the last accepted send returned; 0 = none accepted yet
	closed    bool          // answered or given up, as seen by the generator
}

// foStream is one session's generator and its client-observed history.
type foStream struct {
	name   string
	sess   *core.ClientSession
	sched  Schedule
	base   uint64 // Seq of op k is base+k+1
	pad    []byte
	viol   *violations
	start  time.Time // stream origin: op k is due at start+sched.Due(k)
	ops    []foOp
	issued atomic.Int64 // ops sent at least once

	duplicates atomic.Uint64 // responses to an already answered op

	mu             sync.Mutex
	excessAt       []time.Time // arrivals of responses beyond the requests sent
	resends        uint64
	refused        uint64
	lateNS         []int64
	failures       int
	firstFailedDue time.Duration // earliest due time among the failed ops
}

func (st *foStream) handler(_ uint64, body wire.Message) {
	resp, ok := body.(loadgen.EchoResp)
	if !ok {
		st.viol.add("%s: unexpected response type %s", st.name, body.WireName())
		return
	}
	k := int64(resp.Seq) - int64(st.base) - 1
	if k < 0 || k >= st.issued.Load() {
		st.viol.add("%s: response Seq %d was never sent", st.name, resp.Seq)
		return
	}
	now := time.Now()
	op := &st.ops[k]
	if !op.answered.CompareAndSwap(0, int64(now.Sub(st.start))+1) {
		st.duplicates.Add(1)
	}
	// The driver's own resends are separate requests and each may be
	// answered; a response beyond the number of requests is the system's
	// duplicate, which the paper allows only while a takeover is going on.
	if op.responses.Add(1) > op.sends.Load() {
		st.mu.Lock()
		st.excessAt = append(st.excessAt, now)
		st.mu.Unlock()
	}
}

// send transmits op k once more. A refused send (the client could not
// resolve any member of the session group) leaves lastSent alone, so the
// next sweep tries again at once instead of waiting out a resend interval.
func (st *foStream) send(k int) {
	op := &st.ops[k]
	op.sends.Add(1)
	err := st.sess.Send(loadgen.EchoReq{Seq: st.base + uint64(k) + 1, Pad: st.pad})
	if err != nil {
		st.refused++
		return
	}
	op.lastSent = time.Since(st.start) + 1 // never 0: 0 means no send was accepted yet
}

// sweep closes answered ops, gives up on those past the deadline and
// resends the rest when their resend interval is up. oldest is the first
// op not yet closed; next is the first op not yet issued.
func (st *foStream) sweep(oldest, next int, rec *recorder, track *Track) int {
	refused := false
	for k := oldest; k < next; k++ {
		op := &st.ops[k]
		if op.closed {
			if k == oldest {
				oldest++
			}
			continue
		}
		due := st.sched.Due(k)
		now := time.Since(st.start)
		if at := op.answered.Load(); at != 0 || now-due >= failoverDeadline {
			lat := time.Duration(at-1) - due
			ok := at != 0 && lat < failoverDeadline
			if !ok {
				if st.failures == 0 || due < st.firstFailedDue {
					st.firstFailedDue = due
				}
				st.failures++
			}
			op.closed = true
			rec.done(st.start.Add(due), lat, ok)
			if track.On() && at != 0 {
				track.Add("op", st.base+uint64(k)+1, 0, st.start.Add(due), st.start.Add(time.Duration(at-1)))
			}
			if k == oldest {
				oldest++
			}
			continue
		}
		if !refused && (op.lastSent == 0 || now-op.lastSent >= failoverResend) {
			before := st.refused
			st.send(k)
			st.resends++
			refused = st.refused != before // the rest of the pass would be refused too
		}
	}
	return oldest
}

// generate is the open-loop generator: it issues op k at its due time, no
// matter what is still unanswered, and between arrivals sweeps the
// outstanding ops. After stop it issues nothing new and drains.
func (st *foStream) generate(s *session, rec *recorder, track *Track) {
	oldest, next := 0, 0
	for next < len(st.ops) {
		oldest = st.sweep(oldest, next, rec, track)
		due := st.sched.Due(next)
		if !sleepUntil(st.start.Add(due), s.stop) {
			break
		}
		sentAt := time.Since(st.start)
		st.issued.Store(int64(next + 1))
		t0 := time.Now()
		st.send(next)
		if track.On() {
			track.Add("client.send", st.base+uint64(next)+1, 0, t0, time.Now())
		}
		st.lateNS = append(st.lateNS, int64(Lateness(due, sentAt)))
		next++
	}
	for oldest < next {
		oldest = st.sweep(oldest, next, rec, track)
		time.Sleep(time.Millisecond)
	}
}

// failoverInstance is failover3: the echo cluster under the experiment
// harnesses' quick timers, with a session primary stopped and restarted
// on a fixed plan while two sessions receive open-loop traffic.
type failoverInstance struct {
	*cluster
	e       env
	streams []*foStream

	// watch is the victim's process ID while the bench waits for the first
	// response of watchSession that a survivor sent; 0 otherwise.
	watch         atomic.Uint64
	watchSession  atomic.Uint64
	watchFrom     atomic.Int64 // UnixNano of the StopServer being watched
	firstResponse atomic.Int64 // ns since watchFrom, set once per cycle

	mu           sync.Mutex
	faults       []time.Time // every stop and restart
	firstRestart time.Time
	rejoinFailed bool // a restarted server was not back in the group in time
	cycles       []faultCycle
}

func setupFailover(e env) (instance, error) {
	c, err := newCluster(e, clusterSpec{
		servers: 3, backups: 1, propagation: 50 * time.Millisecond, timers: quick, events: true,
		units:   []ids.UnitName{echoUnit},
		service: func(ids.UnitName) core.Service { return loadgen.NewEchoService() },
	})
	if err != nil {
		return nil, err
	}
	in := &failoverInstance{cluster: c, e: e}
	for i := 0; i < Clients; i++ {
		client, err := c.newClient(in.onResponse)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("client %d: %w", i, err)
		}
		rng := e.rng(i)
		pad := make([]byte, echoPadBytes)
		rng.Read(pad)
		st := &foStream{
			name:  fmt.Sprintf("failover3 session %d", i),
			sched: NewSchedule(failoverRate, Clients, i),
			base:  uint64(rng.Int31()),
			pad:   pad,
			viol:  e.viol,
		}
		if st.sess, err = client.StartSession(echoUnit, st.handler); err != nil {
			c.close()
			return nil, fmt.Errorf("client %d: %w", i, err)
		}
		in.streams = append(in.streams, st)
	}
	return in, nil
}

// onResponse sees every response's transport source: the first one a
// survivor sends for the watched session after a stop ends the gap the
// client sees.
func (in *failoverInstance) onResponse(from ids.EndpointID, sid ids.SessionID, _ uint64, _ wire.Message) {
	victim := in.watch.Load()
	if victim == 0 || uint64(sid) != in.watchSession.Load() {
		return
	}
	if p, ok := from.Process(); ok && uint64(p) != victim {
		if in.watch.CompareAndSwap(victim, 0) {
			in.firstResponse.Store(time.Now().UnixNano() - in.watchFrom.Load())
		}
	}
}

func (in *failoverInstance) run(s *session) {
	start := time.Now()
	horizon := s.origin.Sub(start) + s.window + failoverDeadline
	var wg sync.WaitGroup
	for i, st := range in.streams {
		st.start = start
		st.ops = make([]foOp, int(horizon/st.sched.Period)+1)
		st.lateNS = make([]int64, 0, len(st.ops))
		wg.Add(1)
		go func(i int, st *foStream) {
			defer wg.Done()
			st.generate(s, s.recs[i], s.tracer.Track(fmt.Sprintf("session %d", i)))
		}(i, st)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		in.injectFaults(s)
	}()
	wg.Wait()
}

// pickVictim chooses the server to stop: session 0's primary, or when that
// is the server the clients bootstrap through, session 1's. The framework
// client re-resolves the session group through its first bootstrap server
// before every send, so with that server down each send first waits out a
// resolve timeout and the run measures the client's bootstrap stall, not
// the takeover (README, "What failover3 leaves out").
func (in *failoverInstance) pickVictim() (ids.ProcessID, ids.SessionID) {
	bootstrap := in.pids[0]
	for _, st := range in.streams {
		if p := in.primaryOf(st.sess.ID); p != ids.Nil && p != bootstrap {
			return p, st.sess.ID
		}
	}
	return ids.Nil, 0
}

// injectFaults runs the crash plan: stop a session primary, restart it a
// second later, repeat. In a traced run it also times, per cycle, the
// exclusion, the promotion, the first response a survivor sends and the
// rejoin.
func (in *failoverInstance) injectFaults(s *session) {
	track := s.tracer.Track("faults")
	stops, downtime := faultPlan(s.slice, int(s.window/s.slice))
	for n, at := range stops {
		if !sleepUntil(s.origin.Add(at), s.stop) {
			return
		}
		victim, sid := in.pickVictim()
		if victim == ids.Nil {
			in.e.viol.add("failover3 cycle %d: no session primary outside the bootstrap server to stop", n)
			continue
		}
		cyc := faultCycle{victim: victim}
		stopAt := time.Now()
		in.noteFault(stopAt)
		in.watchFrom.Store(stopAt.UnixNano())
		in.firstResponse.Store(0)
		in.watchSession.Store(uint64(sid))
		in.watch.Store(uint64(victim))
		in.stopServer(victim)
		if !sleepUntil(stopAt.Add(downtime), s.stop) {
			return
		}
		in.watch.Store(0)
		if track.On() {
			exclude, promote := in.takeoverTimes(stopAt, victim, sid)
			first := time.Duration(in.firstResponse.Load())
			if exclude.IsZero() || promote.IsZero() || first == 0 {
				in.e.viol.add("failover3 cycle %d: takeover of %v not observed (exclude %v, promote %v, first response %v)",
					n, victim, exclude, promote, first)
			} else {
				cyc.excludeMS = ms(exclude.Sub(stopAt))
				cyc.promoteMS = ms(promote.Sub(stopAt))
				cyc.firstResponseMS = ms(first)
				track.Add("failover.exclude", uint64(n), 0, stopAt, exclude)
				track.Add("failover.promote", uint64(n), 0, stopAt, promote)
				track.Add("failover.first_response", uint64(n), 0, stopAt, stopAt.Add(first))
			}
		}

		restartAt := time.Now()
		in.noteFault(restartAt)
		if n == 0 {
			in.mu.Lock()
			in.firstRestart = restartAt
			in.mu.Unlock()
		}
		if err := in.restartServer(victim); err != nil {
			in.e.viol.add("failover3 cycle %d: restart %v: %v", n, victim, err)
			return
		}
		if track.On() {
			if d, ok := in.waitFormed(restartAt.Add(s.slice / 4)); ok {
				cyc.rejoinMS = ms(d.Sub(restartAt))
				track.Add("failover.rejoin", uint64(n), 0, restartAt, d)
			} else {
				in.e.viol.add("failover3 cycle %d: %v did not rejoin before the next stop", n, victim)
				in.mu.Lock()
				in.rejoinFailed = true
				in.mu.Unlock()
			}
		}
		in.mu.Lock()
		in.cycles = append(in.cycles, cyc)
		in.mu.Unlock()
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func (in *failoverInstance) noteFault(at time.Time) {
	in.mu.Lock()
	in.faults = append(in.faults, at)
	in.mu.Unlock()
}

// takeoverTimes reads the cluster's own event trace for the takeover that
// followed a stop: when the first view change reached a survivor's core
// (the victim is excluded) and when a survivor became sid's primary.
func (in *failoverInstance) takeoverTimes(after time.Time, victim ids.ProcessID, sid ids.SessionID) (exclude, promote time.Time) {
	for _, ev := range in.events.Events() {
		if ev.Node == victim {
			continue
		}
		switch {
		case ev.Kind == trace.KindSpan && ev.Detail == "core.view-change":
			if begun := ev.At.Add(-ev.Dur); exclude.IsZero() && begun.After(after) {
				exclude = begun
			}
		case ev.Kind == trace.KindPromote && ev.Session == sid:
			if promote.IsZero() && ev.At.After(after) {
				promote = ev.At
			}
		}
	}
	return exclude, promote
}

// finish closes the client-observed history check: every op answered,
// and duplicate responses only near a fault action.
func (in *failoverInstance) finish() extras {
	var ex extras
	in.mu.Lock()
	actions := append([]time.Time(nil), in.faults...)
	firstRestart := in.firstRestart
	spoiled := in.rejoinFailed
	ex.faults = append(ex.faults, in.cycles...)
	in.mu.Unlock()
	// Every view change a server handled opens a takeover window, whoever
	// caused it: the planned stops, the rebalancing after a rejoin, and a
	// peer the failure detector suspected on its own. When the host holds
	// this process up for 60 ms the detector excludes a live peer and takes
	// it back, and the flush duplicates responses though no primary changed.
	start := in.streams[0].start
	windows := append([]time.Time(nil), actions...)
	for _, ev := range in.events.Events() {
		switch {
		case ev.Kind == trace.KindPromote, ev.Kind == trace.KindDemote:
			windows = append(windows, ev.At)
		case ev.Kind == trace.KindSpan && ev.Detail == "core.view-change":
			begun := ev.At.Add(-ev.Dur)
			windows = append(windows, begun)
			if begun.After(start) && !nearFault(begun, actions, plannedSettle) {
				spoiled = true // the detector fired on its own (README, finding 10)
			}
		}
	}
	failed, failedBeforeRejoin := false, false
	for _, st := range in.streams {
		if st.failures > 0 {
			in.e.viol.add("%s: %d ops were not answered within %v, the first due at %v",
				st.name, st.failures, failoverDeadline, st.firstFailedDue)
			failed = true
			if firstRestart.IsZero() || st.start.Add(st.firstFailedDue).Before(firstRestart) {
				failedBeforeRejoin = true
			}
		}
		ex.resends += st.resends
		ex.lateNS = append(ex.lateNS, st.lateNS...)
		ex.duplicates += st.duplicates.Load()
		st.mu.Lock()
		for _, at := range st.excessAt {
			if !nearFault(at, windows, duplicateGrace) {
				in.e.viol.add("%s: more responses than requests at %v, outside every takeover window", st.name, at.Sub(st.start))
			}
		}
		st.mu.Unlock()
	}
	ex.drops = in.drops()
	if len(in.e.viol.list()) > 0 {
		// A segment that broke a check is measured again when what broke it
		// is known and not the takeover's doing: the detector fired on its
		// own, a restarted server did not rejoin, or ops answered through
		// the stop and the takeover went unanswered only from the restart on
		// (README, findings 9 and 10). Anything unanswered earlier counts.
		ex.redo = spoiled || failed && !failedBeforeRejoin
		ex.notes = append(ex.notes, in.timeline(actions))
	}
	return ex
}

// nearFault reports whether at falls within grace after one of the faults.
func nearFault(at time.Time, faults []time.Time, grace time.Duration) bool {
	for _, f := range faults {
		if d := at.Sub(f); d >= 0 && d <= grace {
			return true
		}
	}
	return false
}

// timeline describes a segment that broke a check, for the run's notes:
// the fault actions, every change of primary the servers recorded after the
// stream began, and which ops stayed unanswered. Times count from the
// stream origin, a warm-up before the window.
func (in *failoverInstance) timeline(actions []time.Time) string {
	start := in.streams[0].start
	line := fmt.Sprintf("failover3 seed %d timeline: stops and restarts at", in.e.seed)
	for _, at := range actions {
		line += fmt.Sprintf(" %v", at.Sub(start))
	}
	line += ";"
	for _, ev := range in.events.Events() {
		if (ev.Kind == trace.KindPromote || ev.Kind == trace.KindDemote) && ev.At.After(start) {
			line += fmt.Sprintf(" %v %s %v at %v;", ev.Session, ev.Kind, ev.Node, ev.At.Sub(start))
		}
	}
	for _, st := range in.streams {
		first, last, n := 0, 0, 0
		for k := 0; k < int(st.issued.Load()); k++ {
			if st.ops[k].answered.Load() == 0 {
				if n == 0 {
					first = k
				}
				last = k
				n++
			}
		}
		if n > 0 {
			line += fmt.Sprintf(" %s (%v, now at%s) left %d ops unanswered, due %v to %v;",
				st.name, st.sess.ID, in.primaries(), n, st.sched.Due(first), st.sched.Due(last))
		}
	}
	return line
}
