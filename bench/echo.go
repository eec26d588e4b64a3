package bench

import (
	"fmt"
	"time"

	"hafw/internal/core"
	"hafw/internal/ids"
	"hafw/internal/loadgen"
)

// echoPadBytes is the request payload size of the echo workloads.
const echoPadBytes = 64

// echoUnit is the one content unit of the in-memory cluster echo3 and
// churn3 share. With every session on one unit the unit database spreads
// primaries and backups over all three servers, and where a session lands
// does not depend on the seed.
const echoUnit = ids.UnitName("load-0")

// newEchoCluster is that cluster: servers on a zero-delay memnet running
// the echo service with T=50 ms, and one client per client goroutine.
func newEchoCluster(e env, servers, backups int) (*cluster, error) {
	c, err := newCluster(e, clusterSpec{
		servers: servers, backups: backups, propagation: 50 * time.Millisecond, timers: patient,
		units:   []ids.UnitName{echoUnit},
		service: func(ids.UnitName) core.Service { return loadgen.NewEchoService() },
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < Clients; i++ {
		if _, err := c.newClient(nil); err != nil {
			c.close()
			return nil, fmt.Errorf("client %d: %w", i, err)
		}
	}
	return c, nil
}

// echoInstance is echo3: each client holds one long session and sends
// 64-byte requests back to back, one outstanding at a time.
type echoInstance struct {
	*cluster
	conns []*echoConn
	sess  []*core.ClientSession
}

func setupEcho(e env) (instance, error) {
	c, err := newEchoCluster(e, 3, 1)
	if err != nil {
		return nil, err
	}
	in := &echoInstance{cluster: c}
	for i, client := range c.clients {
		conn := newSeededEchoConn(e, "echo3", i)
		sess, err := client.StartSession(echoUnit, conn.handler)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("client %d: %w", i, err)
		}
		in.conns = append(in.conns, conn)
		in.sess = append(in.sess, sess)
	}
	return in, nil
}

func (in *echoInstance) run(s *session) { eachClient(func(i int) { in.drive(i, s) }) }

func (in *echoInstance) drive(i int, s *session) {
	conn, sess, rec := in.conns[i], in.sess[i], s.recs[i]
	track := s.tracer.Track(fmt.Sprintf("client %d", i))
	timer := newStoppedTimer()
	var op uint64
	for !stopped(s.stop) {
		op++
		t0 := time.Now()
		sentAt, doneAt, ok := conn.call(sess, timer)
		rec.done(doneAt, doneAt.Sub(t0), ok)
		if track.On() {
			root := track.Add("op", op, 0, t0, doneAt)
			track.Add("client.send", op, root, t0, sentAt)
			track.Add("client.wait", op, root, sentAt, doneAt)
		}
	}
}

func (in *echoInstance) finish() extras {
	return extras{drops: in.drops(), notes: []string{"sessions:" + in.primaries()}}
}

func (in *echoInstance) close() {
	for _, sess := range in.sess {
		_ = sess.End()
	}
	in.cluster.close()
}

// churnInstance is churn3: every operation opens a session, makes four
// requests on it and ends it, so group joins, allocation and resolution of
// fresh groups carry the cost instead of data sequencing.
type churnInstance struct {
	*cluster
	conns []*echoConn
}

// churnRequests is the number of requests per churn3 session.
const churnRequests = 4

func setupChurn(e env) (instance, error) {
	c, err := newEchoCluster(e, 3, 1)
	if err != nil {
		return nil, err
	}
	in := &churnInstance{cluster: c}
	for i := range c.clients {
		in.conns = append(in.conns, newSeededEchoConn(e, "churn3", i))
	}
	return in, nil
}

func (in *churnInstance) run(s *session) { eachClient(func(i int) { in.drive(i, s) }) }

func (in *churnInstance) drive(i int, s *session) {
	conn, client, rec := in.conns[i], in.clients[i], s.recs[i]
	track := s.tracer.Track(fmt.Sprintf("client %d", i))
	timer := newStoppedTimer()
	type span struct {
		name       string
		start, end time.Time
	}
	spans := make([]span, 0, churnRequests+2)
	var op uint64
	for !stopped(s.stop) {
		op++
		spans = spans[:0]
		t0 := time.Now()
		sess, err := client.StartSession(echoUnit, conn.handler)
		t1 := time.Now()
		spans = append(spans, span{"client.start_session", t0, t1})
		ok := err == nil
		if ok {
			for r := 0; r < churnRequests; r++ {
				r0 := time.Now()
				_, r1, answered := conn.call(sess, timer)
				spans = append(spans, span{"client.request", r0, r1})
				ok = ok && answered
			}
			e0 := time.Now()
			ok = sess.End() == nil && ok
			spans = append(spans, span{"client.end_session", e0, time.Now()})
		}
		end := time.Now()
		rec.done(end, end.Sub(t0), ok)
		if track.On() {
			root := track.Add("op", op, 0, t0, end)
			for _, sp := range spans {
				track.Add(sp.name, op, root, sp.start, sp.end)
			}
		}
	}
}

func (in *churnInstance) finish() extras { return extras{drops: in.drops()} }
