package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"hafw/internal/core"
	"hafw/internal/services/ledger"
	"hafw/internal/wire"
)

// The simulator's workload service is the tagged ledger (package
// ledger): every update carries a unique tag, the session context is the
// tag history, and an acked (echoed) tag must survive any failure the run
// is configured to tolerate. The audit at the end of a run compares each
// client's acked set against what the healed service still holds — the
// "no lost acked request" invariant made executable.

// simClient is one workload driver: a framework client, its session, and
// the acked-tag ledger the audit compares against the service.
type simClient struct {
	id  int
	c   *core.Client
	rng *rand.Rand

	mu      sync.Mutex
	acked   map[string]int           // tag → echo count (>1 means duplicate ack)
	ackAt   map[string]time.Duration // tag → virtual offset of the first ack
	sent    int
	final   []string // last successful dump, nil if none succeeded
	dumpErr string
}

// pause blocks for d of virtual time or until the workload stops; it
// reports false when stopping.
func (c *Cluster) pause(d time.Duration) bool {
	t := c.base.NewTimer(d)
	select {
	case <-t.C():
		return true
	case <-c.stopC:
		t.Stop()
		return false
	}
}

// clientLoop drives one session for the whole run: open, send tagged
// updates at the configured pace, record which ones the service acked,
// and finish with durability probes once the chaos window has closed.
// Every wait is interruptible by the cluster's stop channel so the loop
// can never outlive the scheduler.
func (c *Cluster) clientLoop(cl *simClient) {
	defer c.wg.Done()
	callTimeout := c.cfg.timers().RequestTimeout
	echoes := make(chan string, 256)
	dumps := make(chan []string, 16)

	// Wait until the service group answers a directory query.
	for {
		if units, err := cl.c.ListUnits(); err == nil && len(units) > 0 {
			break
		}
		if !c.pause(2 * time.Second) {
			cl.noteDumpErr("service never became reachable")
			return
		}
	}
	sess, err := cl.c.StartSession(c.unit, func(seq uint64, body wire.Message) {
		switch m := body.(type) {
		case ledger.Echo:
			select {
			case echoes <- m.Tag:
			default:
			}
		case ledger.Tags:
			select {
			case dumps <- m.Tags:
			default:
			}
		}
	})
	if err != nil {
		cl.noteDumpErr(fmt.Sprintf("session never opened: %v", err))
		return
	}

	running := true
	for running {
		select {
		case <-c.stopC:
			running = false
			continue
		default:
		}
		cl.mu.Lock()
		cl.sent++
		tag := fmt.Sprintf("c%d-%d", cl.id, cl.sent)
		cl.mu.Unlock()
		if err := sess.Send(ledger.Update{Tag: tag, Echo: true}); err != nil {
			// Primary unreachable: back off and retry with a fresh tag.
			if !c.pause(callTimeout) {
				break
			}
			continue
		}
		t := c.base.NewTimer(callTimeout)
	drain:
		for {
			select {
			case got := <-echoes:
				cl.ack(got, c.elapsed())
				if got == tag {
					t.Stop()
					break drain
				}
			case <-t.C():
				break drain
			case <-c.stopC:
				t.Stop()
				running = false
				break drain
			}
		}
		// Jittered think time keeps the fleet's updates unsynchronized.
		think := c.cfg.UpdateEvery/2 + time.Duration(cl.rng.Int63n(int64(c.cfg.UpdateEvery)))
		if !c.pause(think) {
			break
		}
	}

	// Final audit probe: the chaos window is over and the network healed,
	// so a dump must eventually succeed. Late echoes for earlier tags
	// still count — an ack is an ack whenever it arrives.
	for attempt := 0; attempt < 8; attempt++ {
		if err := sess.Send(ledger.Dump{}); err == nil {
			t := c.base.NewTimer(callTimeout)
			select {
			case tags := <-dumps:
				t.Stop()
				cl.setFinal(tags)
				return
			case got := <-echoes:
				cl.ack(got, c.elapsed())
			case <-t.C():
			}
			t.Stop()
		}
		c.pause(2 * time.Second)
	}
	cl.noteDumpErr("no response to final dump after 8 attempts")
}

func (cl *simClient) ack(tag string, at time.Duration) {
	cl.mu.Lock()
	if cl.acked[tag] == 0 {
		cl.ackAt[tag] = at
	}
	cl.acked[tag]++
	cl.mu.Unlock()
}

func (cl *simClient) setFinal(tags []string) {
	cl.mu.Lock()
	cl.final = tags
	cl.mu.Unlock()
}

func (cl *simClient) noteDumpErr(msg string) {
	cl.mu.Lock()
	cl.dumpErr = msg
	cl.mu.Unlock()
}

// lostTag is one acked tag the healed service no longer holds, stamped
// with when the ack arrived so the audit can classify the loss against
// the run's fault timelines.
type lostTag struct {
	tag string
	at  time.Duration
}

// audit compares the acked set against the final dump: every acked tag
// must appear in the healed service's history. When no dump ever
// succeeded but updates were acked, the session itself vanished — every
// acked tag is lost and the note says why. A non-empty note with zero
// acks means the audit could not run at all.
func (cl *simClient) audit() (lost []lostTag, acked, dups int, note string) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	acked = len(cl.acked)
	for _, n := range cl.acked {
		if n > 1 {
			dups += n - 1
		}
	}
	have := make(map[string]bool, len(cl.final))
	for _, t := range cl.final {
		have[t] = true
	}
	if cl.final == nil {
		note = cl.dumpErr
		if acked == 0 {
			return nil, 0, dups, note
		}
	}
	for tag, at := range cl.ackAt {
		if !have[tag] {
			lost = append(lost, lostTag{tag: tag, at: at})
		}
	}
	sort.Slice(lost, func(i, j int) bool { return lost[i].tag < lost[j].tag })
	return lost, acked, dups, note
}
