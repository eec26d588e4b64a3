package bench

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hafw/internal/core"
	"hafw/internal/gcs"
	"hafw/internal/ids"
	"hafw/internal/loadgen"
	"hafw/internal/media"
	"hafw/internal/services/vod"
	"hafw/internal/store"
	"hafw/internal/transport/memnet"
	"hafw/internal/transport/tcpnet"
	"hafw/internal/unitdb"
	"hafw/internal/vsync"
	"hafw/internal/wire"
)

// The probes time single layers in isolation through their public
// functions. Each number is a median over batches, so a probe's own
// run-to-run noise stays small next to the changes it is meant to show.

// prober runs a probe's timed calls and keeps the first failure. After a
// failure every further call returns at once, so a probe whose cluster has
// wedged costs one timeout and not one per remaining call.
type prober struct{ err error }

// perCallUS runs fn n times per batch and returns the median over batches
// of the mean microseconds per call.
func (p *prober) perCallUS(batches, n int, fn func() error) float64 {
	vs := make([]float64, batches)
	for b := range vs {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if p.err != nil {
				return 0
			}
			p.err = fn()
		}
		vs[b] = float64(time.Since(t0)) / 1e3 / float64(n)
	}
	return Median(vs)
}

// allocsPerCall is the heap allocations per call of fn over n calls,
// counted process-wide: call it only while nothing else is running.
func (p *prober) allocsPerCall(n int, fn func() error) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		if p.err != nil {
			return 0
		}
		p.err = fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// probeMsg is the probes' own payload for transports and groups.
type probeMsg struct {
	N    uint64
	Data []byte
}

func (probeMsg) WireName() string { return "bench.probe" }

func init() { wire.Register(probeMsg{}) }

// smallEnvelope is what one 64-byte echo request looks like on the wire.
func smallEnvelope() wire.Envelope {
	return wire.Envelope{
		From: ids.ClientEndpoint(5001), To: ids.ProcessEndpoint(1),
		Payload: vsync.ClientSend{
			Group: core.SessionGroup("load-0", 7),
			ID:    ids.MsgID{Sender: ids.ClientEndpoint(5001), Seq: 42},
			Payload: core.ClientRequest{Session: 7,
				Body: loadgen.EchoReq{Seq: 42, Pad: make([]byte, echoPadBytes)}},
		},
	}
}

// chunkEnvelope is one 64 KiB media chunk on its way to a client.
func chunkEnvelope() wire.Envelope {
	return wire.Envelope{
		From: ids.ProcessEndpoint(1), To: ids.ClientEndpoint(7001),
		Payload: core.Response{Session: 7, Seq: 42,
			Body: vod.ChunkResp{Chunk: media.Seal(media.Pos{Seg: 1, Chunk: 3}, make([]byte, streamChunkBytes))}},
	}
}

func probeWire(out map[string]float64) error {
	for _, c := range []struct {
		label string
		env   wire.Envelope
		n     int
	}{{"small", smallEnvelope(), 400}, {"chunk", chunkEnvelope(), 60}} {
		data, err := wire.Encode(c.env)
		if err != nil {
			return err
		}
		var p prober
		out["wire.encode_us."+c.label] = p.perCallUS(9, c.n, func() error { _, err := wire.Encode(c.env); return err })
		out["wire.decode_us."+c.label] = p.perCallUS(9, c.n, func() error { _, err := wire.Decode(data); return err })
		if c.label == "small" {
			out["wire.clone_us.small"] = p.perCallUS(9, c.n, func() error { _, _, err := wire.CloneEnvelope(c.env); return err })
			out["wire.allocs_per_roundtrip.small"] = p.allocsPerCall(c.n, func() error {
				d, err := wire.Encode(c.env)
				if err == nil {
					_, err = wire.Decode(d)
				}
				return err
			})
			out["wire.bytes_per_envelope.small"] = float64(len(data))
		}
		if p.err != nil {
			return p.err
		}
	}
	return nil
}

// probeMemnet times one hop: Send on one endpoint until the handler of
// the other has the message.
func probeMemnet(out map[string]float64) error {
	net := memnet.New(memnet.Config{})
	defer net.Close()
	a, err := net.Attach(ids.ProcessEndpoint(1))
	if err != nil {
		return err
	}
	b, err := net.Attach(ids.ProcessEndpoint(2))
	if err != nil {
		return err
	}
	got := make(chan struct{}, 1)
	b.SetHandler(func(wire.Envelope) { got <- struct{}{} })
	msg := smallEnvelope().Payload
	hop := func() error {
		if err := a.Send(ids.ProcessEndpoint(2), msg); err != nil {
			return err
		}
		return within(got, "memnet probe: message not delivered")
	}
	var p prober
	out["memnet.send_us"] = p.perCallUS(9, 400, hop)
	out["memnet.allocs_per_send"] = p.allocsPerCall(400, hop)
	return p.err
}

// within waits for a probe's completion signal for at most opTimeout.
func within(done <-chan struct{}, otherwise string) error {
	select {
	case <-done:
		return nil
	case <-time.After(opTimeout):
		return errors.New(otherwise)
	}
}

// probeTCPNet times a small message's round trip and a chunk stream's
// rate between two endpoints over loopback.
func probeTCPNet(out map[string]float64) error {
	a, err := tcpnet.New(tcpnet.Config{Self: ids.ProcessEndpoint(1), ListenAddr: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := tcpnet.New(tcpnet.Config{Self: ids.ProcessEndpoint(2), ListenAddr: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	defer b.Close()
	a.AddPeer(ids.ProcessEndpoint(2), b.Addr())
	b.AddPeer(ids.ProcessEndpoint(1), a.Addr())

	back := make(chan struct{}, 1)
	var chunks atomic.Int64
	allChunks := make(chan struct{}, 1)
	const streamN = 64
	a.SetHandler(func(wire.Envelope) { back <- struct{}{} })
	b.SetHandler(func(env wire.Envelope) {
		if m, ok := env.Payload.(probeMsg); ok && len(m.Data) == 0 {
			_ = b.Send(ids.ProcessEndpoint(1), m)
			return
		}
		if chunks.Add(1)%streamN == 0 {
			allChunks <- struct{}{}
		}
	})
	ping := func() error {
		if err := a.Send(ids.ProcessEndpoint(2), probeMsg{N: 1}); err != nil {
			return err
		}
		return within(back, "tcpnet probe: no reply")
	}
	if err := ping(); err != nil { // dials both directions before timing
		return err
	}
	var p prober
	out["tcpnet.rtt_us.small"] = p.perCallUS(9, 200, ping)

	chunk := chunkEnvelope().Payload
	stream := func() error {
		for i := 0; i < streamN; i++ {
			if err := a.Send(ids.ProcessEndpoint(2), chunk); err != nil {
				return err
			}
		}
		return within(allChunks, "tcpnet probe: chunk stream stalled")
	}
	if usPerStream := p.perCallUS(9, 1, stream); usPerStream > 0 {
		out["tcpnet.mib_per_s.chunk"] = float64(streamN*streamChunkBytes) / (1 << 20) / (usPerStream / 1e6)
	}
	out["tcpnet.allocs_per_send"] = p.allocsPerCall(4, stream) / streamN
	return p.err
}

// probeGCS times the group layer on three processes over a zero-delay
// memnet: a totally ordered multicast until every member has delivered
// it, a join until every member has the view, and a client's resolve.
func probeGCS(out map[string]float64) error {
	net := memnet.New(memnet.Config{})
	defer net.Close()
	pids := []ids.ProcessID{1, 2, 3}
	var delivered atomic.Int64
	var mu sync.Mutex
	joined := make(map[ids.GroupName]int) // members that have seen the full view
	procs := make([]*gcs.Process, 0, len(pids))
	for _, pid := range pids {
		ep, err := net.Attach(ids.ProcessEndpoint(pid))
		if err != nil {
			return err
		}
		p, err := gcs.NewProcess(gcs.Config{
			Self: pid, Transport: ep, World: pids,
			OnEvent: func(e gcs.Event) {
				switch ev := e.(type) {
				case gcs.MessageEvent:
					delivered.Add(1)
				case gcs.ViewEvent:
					if len(ev.View.Members) == len(pids) {
						mu.Lock()
						joined[ev.View.Group]++
						mu.Unlock()
					}
				}
			},
			// The probe injects no faults; patient detection keeps a busy
			// send loop from being mistaken for a dead peer.
			FDInterval: 50 * time.Millisecond, FDTimeout: 3 * time.Second,
			RoundTimeout: 250 * time.Millisecond, AckInterval: 15 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		defer p.Stop()
		procs = append(procs, p)
	}
	for i := len(procs) - 1; i >= 0; i-- { // highest ID first: see newCluster
		procs[i].Start()
		time.Sleep(2 * time.Millisecond)
	}
	wait := opTimeout
	waitFor := func(what string, cond func() bool) error {
		deadline := time.Now().Add(wait)
		for !cond() {
			if time.Now().After(deadline) {
				return fmt.Errorf("gcs probe: %s timed out", what)
			}
			runtime.Gosched()
		}
		return nil
	}
	fullView := func(g ids.GroupName) func() bool {
		return func() bool {
			mu.Lock()
			defer mu.Unlock()
			return joined[g] == len(pids)
		}
	}
	joinAll := func(g ids.GroupName) error {
		for _, p := range procs {
			if err := p.Join(g); err != nil {
				return err
			}
		}
		return waitFor("join of "+string(g), fullView(g))
	}
	wait = formationDeadline // the first join also waits for the processes to find each other
	if err := joinAll("probe"); err != nil {
		return err
	}
	wait = opTimeout

	msg := probeMsg{Data: make([]byte, echoPadBytes)}
	var sent int64
	multicast := func() error {
		if err := procs[0].Multicast("probe", msg); err != nil {
			return err
		}
		sent += int64(len(pids))
		return waitFor("multicast delivery", func() bool { return delivered.Load() >= sent })
	}
	var p prober
	out["gcs.multicast_us"] = p.perCallUS(9, 100, multicast)
	out["gcs.allocs_per_multicast"] = p.allocsPerCall(200, multicast)

	groupN := 0
	out["gcs.join_us"] = p.perCallUS(9, 4, func() error {
		groupN++
		return joinAll(ids.GroupName(fmt.Sprintf("probe-%d", groupN)))
	}) / float64(len(pids)) // one op joined three members, one after another

	cep, err := net.Attach(ids.ClientEndpoint(9001))
	if err != nil {
		return err
	}
	client, err := gcs.NewClient(gcs.ClientConfig{Self: 9001, Transport: cep, Servers: pids})
	if err != nil {
		return err
	}
	defer client.Close()
	out["gcs.resolve_us"] = p.perCallUS(9, 100, func() error {
		client.Invalidate("probe")
		_, err := client.Resolve("probe")
		return err
	})
	return p.err
}

// probeUnitDB times the deterministic allocation function and a join-time
// delta exchange on a 1 000-session database with R=3, B=1.
func probeUnitDB(out map[string]float64) {
	members := []ids.ProcessID{1, 2, 3}
	build := func(staleTail bool) *unitdb.DB {
		db := unitdb.New("u")
		for i := 0; i < 1000; i++ {
			s := db.CreateSession(ids.ClientID(i))
			db.Allocate(s.ID, members, 1)
			stamp := uint64(2)
			if staleTail && i >= 900 {
				stamp = 1 // a brief restart: missed the last update on a tenth of the sessions
			}
			db.UpdateContext(s.ID, make([]byte, 64), stamp)
		}
		return db
	}
	fresh := build(false)
	var p prober
	out["unitdb.allocate_us"] = p.perCallUS(9, 200, func() error {
		s := fresh.CreateSession(5000)
		fresh.Allocate(s.ID, members, 1)
		fresh.Remove(s.ID)
		return nil
	})
	stale := build(true).Snapshot()
	out["unitdb.delta_merge_us"] = p.perCallUS(9, 1, func() error {
		joiner := unitdb.New("u")
		joiner.Restore(stale)
		offers := map[ids.ProcessID]unitdb.Offer{1: fresh.Offer(), 2: joiner.Offer()}
		joiner.Merge(fresh.DeltaFor(1, offers))
		return nil
	})
}

// probeCore is the single-node baseline: one server, no backups, one
// closed-loop client. echo3's median latency minus this is what
// replication costs a request.
func probeCore(out map[string]float64) error {
	e := env{viol: &violations{}}
	c, err := newEchoCluster(e, 1, 0)
	if err != nil {
		return err
	}
	defer c.close()
	conn := newEchoConn("solo probe", 0, make([]byte, echoPadBytes), e.viol)
	sess, err := c.clients[0].StartSession(echoUnit, conn.handler)
	if err != nil {
		return err
	}
	timer := newStoppedTimer()
	var p prober
	out["core.solo_us_per_req"] = p.perCallUS(9, 300, func() error {
		if _, _, ok := conn.call(sess, timer); !ok {
			return errors.New("solo probe: request not answered")
		}
		return nil
	})
	if p.err != nil {
		return p.err
	}
	if v := e.viol.list(); len(v) > 0 {
		return fmt.Errorf("solo probe: %v", v)
	}
	return sess.End()
}

// probeStore times the write-ahead log on its own. No workload logs to
// disk yet, so nothing end to end moves with these two.
func probeStore(out map[string]float64, scratch string) error {
	dir, err := os.MkdirTemp(scratch, "store-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	s, _, _, err := store.Open(store.Options{Dir: dir, Unit: "probe", Policy: store.FsyncNever})
	if err != nil {
		return err
	}
	ctx := make([]byte, 64)
	var n uint64
	// 1 000 sessions, three records each, the shape of a live database.
	for sid := ids.SessionID(1); sid <= 1000; sid++ {
		for _, r := range []store.Record{
			{Op: store.OpCreate, SID: sid, Client: ids.ClientID(sid)},
			{Op: store.OpAlloc, SID: sid, Primary: 1, Backups: []ids.ProcessID{2}},
		} {
			if err := s.Append(r); err != nil {
				return err
			}
		}
	}
	var p prober
	out["store.append_us"] = p.perCallUS(9, 200, func() error {
		n++
		return s.Append(store.Record{Op: store.OpCtx, SID: ids.SessionID(n%1000 + 1), Ctx: ctx, Stamp: n})
	})
	if err := s.Close(); err != nil {
		return err
	}
	out["store.recover_ms"] = p.perCallUS(5, 1, func() error {
		db, _, err := store.Recover(dir, "probe")
		if err == nil && db.Len() != 1000 {
			err = fmt.Errorf("store probe: recovered %d sessions, want 1000", db.Len())
		}
		return err
	}) / 1e3
	return p.err
}

// probeMedia times a chunk read from the resident store stream3tcp serves.
func probeMedia(out map[string]float64) error {
	st, err := (&titleCache{}).get(1)
	if err != nil {
		return err
	}
	man := st.Manifest()
	i := 0
	var p prober
	out["media.read_chunk_us"] = p.perCallUS(9, 2000, func() error {
		i++
		_, err := st.Chunk(man.At(i % man.TotalChunks()))
		return err
	})
	return p.err
}

// RunProbes runs every isolated layer probe and returns their metrics by
// name. scratch is a directory the store probe may write under.
func RunProbes(scratch string) (map[string]float64, error) {
	out := make(map[string]float64)
	probeUnitDB(out)
	for _, p := range []struct {
		layer string
		run   func() error
	}{
		{"wire", func() error { return probeWire(out) }},
		{"memnet", func() error { return probeMemnet(out) }},
		{"tcpnet", func() error { return probeTCPNet(out) }},
		{"gcs", func() error { return probeGCS(out) }},
		{"core", func() error { return probeCore(out) }},
		{"store", func() error { return probeStore(out, scratch) }},
		{"media", func() error { return probeMedia(out) }},
	} {
		err := p.run()
		if err != nil {
			err = p.run() // a probe cluster can wedge while forming, like any other
		}
		if err != nil {
			return nil, fmt.Errorf("bench: %s probe: %w", p.layer, err)
		}
	}
	return out, nil
}
