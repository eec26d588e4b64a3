package bench

import (
	"fmt"
	"sync"
	"time"

	"hafw/internal/core"
	"hafw/internal/ids"
	"hafw/internal/media"
	"hafw/internal/services/vod"
	"hafw/internal/wire"
)

// The stream3tcp title: 256 chunks of 64 KiB (16 MiB) in two segments, held
// in memory and re-pulled for as long as the run lasts. A much smaller
// title leaves the process with a live heap of a few MiB under 2 GB/s of
// allocation, and then how often the collector runs — which follows how
// much garbage the heap happens to have retained — sets the throughput.
const (
	streamChunkBytes = 64 << 10
	streamChunks     = 256
	streamPull       = 8 // chunks per GetChunk pull: one operation
	streamUnit       = ids.UnitName("title-0")
)

// titleCache holds the one store a run serves.
type titleCache struct {
	seed  int64
	store *media.MemStore
}

// get returns the title for seed, synthesizing it on first use.
func (c *titleCache) get(seed int64) (*media.MemStore, error) {
	if c.store == nil || c.seed != seed {
		store, err := media.Materialize(media.Synthesize(streamSpec(seed)))
		if err != nil {
			return nil, err
		}
		c.seed, c.store = seed, store
	}
	return c.store, nil
}

func streamSpec(seed int64) media.Spec {
	return media.Spec{
		Title:           string(streamUnit),
		Duration:        2 * time.Second,
		SegmentDuration: time.Second,
		BitrateBps:      streamChunkBytes * streamChunks / 2,
		ChunkBytes:      streamChunkBytes,
		Seed:            seed | 1,
	}
}

// puller is one client's closed-loop chunk conversation: a pull asks for
// streamPull chunks from a position, and is complete when exactly those
// arrive, CRC-clean and in order.
type puller struct {
	name string
	viol *violations
	done chan struct{} // capacity 1

	mu        sync.Mutex
	man       media.Manifest
	from      int // global index of the pull's first chunk
	got       int // chunks of the current pull received so far
	open      bool
	dupChunks uint64
}

func (p *puller) handler(_ uint64, body wire.Message) {
	resp, ok := body.(vod.ChunkResp)
	if !ok {
		p.viol.add("%s: unexpected response type %s", p.name, body.WireName())
		return
	}
	if !resp.Chunk.Verify() {
		p.viol.add("%s: chunk %v failed its CRC", p.name, resp.Chunk.Pos())
		return
	}
	p.mu.Lock()
	idx := p.man.Index(resp.Chunk.Pos())
	complete := false
	switch {
	case p.open && idx == p.from+p.got:
		p.got++
		if p.got == streamPull {
			p.open = false
			complete = true
		}
	case idx >= p.from && idx < p.from+p.got:
		p.dupChunks++
	default:
		p.viol.add("%s: chunk %v out of position (pull starts at %d, %d received)",
			p.name, resp.Chunk.Pos(), p.from, p.got)
	}
	p.mu.Unlock()
	if complete {
		p.done <- struct{}{}
	}
}

// pull issues one GetChunk for the streamPull chunks at global index from
// and waits for them all.
func (p *puller) pull(sess *core.ClientSession, from int, timer *time.Timer) (sentAt, doneAt time.Time, ok bool) {
	p.mu.Lock()
	p.from, p.got, p.open = from, 0, true
	pos := p.man.At(from)
	p.mu.Unlock()
	// Ack stays at the title's start: the title is re-pulled for as long as
	// the run lasts, so the session's resume point never advances.
	err := sess.Send(vod.GetChunk{From: pos, Window: streamPull})
	sentAt = time.Now()
	if err == nil && await(p.done, timer) {
		return sentAt, time.Now(), true
	}
	p.mu.Lock()
	raced := !p.open
	p.open = false
	p.mu.Unlock()
	if raced && err == nil {
		<-p.done
	}
	return sentAt, time.Now(), false
}

// streamInstance is stream3tcp.
type streamInstance struct {
	*cluster
	sess    []*core.ClientSession
	pullers []*puller
	starts  [][]int // per client: seeded sequence of pull start indexes, cycled
}

func setupStream(e env) (instance, error) {
	store, err := e.title.get(e.runSeed)
	if err != nil {
		return nil, err
	}
	c, err := newCluster(e, clusterSpec{
		servers: 3, backups: 1, propagation: 100 * time.Millisecond, timers: patient, tcp: true,
		units:   []ids.UnitName{streamUnit},
		service: func(ids.UnitName) core.Service { return vod.NewStream(store, nil) },
	})
	if err != nil {
		return nil, err
	}
	in := &streamInstance{cluster: c}
	man := store.Manifest()
	for i := 0; i < Clients; i++ {
		client, err := c.newClient(nil)
		if err != nil {
			in.close()
			return nil, fmt.Errorf("client %d: %w", i, err)
		}
		p := &puller{name: fmt.Sprintf("stream3tcp client %d", i), viol: e.viol, done: make(chan struct{}, 1), man: man}
		sess, err := client.StartSession(streamUnit, p.handler)
		if err != nil {
			in.close()
			return nil, fmt.Errorf("client %d: %w", i, err)
		}
		in.sess = append(in.sess, sess)
		in.pullers = append(in.pullers, p)
		rng := e.rng(i)
		starts := make([]int, 1024)
		for j := range starts {
			starts[j] = rng.Intn(man.TotalChunks()/streamPull) * streamPull
		}
		in.starts = append(in.starts, starts)
	}
	return in, nil
}

func (in *streamInstance) run(s *session) { eachClient(func(i int) { in.drive(i, s) }) }

func (in *streamInstance) drive(i int, s *session) {
	p, sess, rec := in.pullers[i], in.sess[i], s.recs[i]
	track := s.tracer.Track(fmt.Sprintf("client %d", i))
	timer := newStoppedTimer()
	var op uint64
	for !stopped(s.stop) {
		from := in.starts[i][op%uint64(len(in.starts[i]))]
		op++
		t0 := time.Now()
		sentAt, doneAt, ok := p.pull(sess, from, timer)
		rec.done(doneAt, doneAt.Sub(t0), ok)
		if track.On() {
			root := track.Add("op", op, 0, t0, doneAt)
			track.Add("client.send", op, root, t0, sentAt)
			track.Add("client.wait_chunks", op, root, sentAt, doneAt)
		}
	}
}

func (in *streamInstance) finish() extras {
	ex := extras{notes: []string{"sessions:" + in.primaries()}}
	for _, p := range in.pullers {
		p.mu.Lock()
		ex.dupChunks += p.dupChunks
		p.mu.Unlock()
	}
	return ex
}

func (in *streamInstance) close() {
	for _, sess := range in.sess {
		_ = sess.End()
	}
	in.cluster.close()
}
