package cluster

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"hafw/internal/clock"
	"hafw/internal/core"
	"hafw/internal/ids"
	"hafw/internal/services/ledger"
	"hafw/internal/testutil"
	"hafw/internal/transport/memnet"
	"hafw/internal/wire"
)

var transports = []struct {
	name string
	kind Transport
}{
	{"memnet", Memnet},
	{"tcpnet", TCP},
}

func ledgerService(ids.UnitName) core.Service { return ledger.New() }

// newTestCluster brings up a ledger cluster torn down with the test.
func newTestCluster(t *testing.T, kind Transport, cfg Config) *Cluster {
	t.Helper()
	if cfg.Service == nil {
		cfg.Service = ledgerService
	}
	c, err := New(kind, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

// echoSession opens a ledger session whose echoes arrive on the returned
// channel.
func echoSession(t *testing.T, c *Cluster) (*core.ClientSession, <-chan string) {
	t.Helper()
	client, err := c.NewClient(nil)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(func() { _ = client.Close() })
	echoes := make(chan string, 64)
	sess, err := client.StartSession(c.Units()[0], func(_ uint64, body wire.Message) {
		if e, ok := body.(ledger.Echo); ok {
			echoes <- e.Tag
		}
	})
	if err != nil {
		t.Fatalf("StartSession: %v", err)
	}
	return sess, echoes
}

// ack sends one echoed update and waits for its echo.
func ack(t *testing.T, sess *core.ClientSession, echoes <-chan string, tag string) {
	t.Helper()
	if err := sess.Send(ledger.Update{Tag: tag, Echo: true}); err != nil {
		t.Fatalf("Send %s: %v", tag, err)
	}
	deadline := time.After(10 * time.Second)
	for {
		select {
		case got := <-echoes:
			if got == tag {
				return
			}
		case <-deadline:
			t.Fatalf("no echo for %s", tag)
		}
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTimersProfile pins each kind's timer profile and starts no server.
// E4, E5 and E10 read the wall-clock memnet profile; the simulator's
// large runs rely on the virtual profile stretching above ten servers.
func TestTimersProfile(t *testing.T) {
	ms := time.Millisecond * time.Duration(testutil.TimeScale)
	s := time.Second
	mem := Timers{FDInterval: 10 * ms, FDTimeout: 60 * ms, RoundTimeout: 100 * ms, AckInterval: 15 * ms, RequestTimeout: 400 * ms, IdleTimeout: 30 * s}
	tcp := Timers{FDInterval: 25 * ms, FDTimeout: 150 * ms, RoundTimeout: 250 * ms, AckInterval: 40 * ms, RequestTimeout: 1000 * ms, IdleTimeout: 30 * s}
	virtual := Timers{FDInterval: 2 * s, FDTimeout: 10 * s, RoundTimeout: 4 * s, AckInterval: 2 * s, RequestTimeout: 4 * s}
	large := Timers{FDInterval: 15 * s, FDTimeout: 45 * s, RoundTimeout: 4 * s, AckInterval: 3 * s, RequestTimeout: 4 * s}
	for _, tc := range []struct {
		kind    Transport
		servers int
		want    Timers
	}{
		{Memnet, 3, mem}, {Memnet, 50, mem},
		{TCP, 3, tcp}, {TCP, 50, tcp},
		{Virtual, 3, virtual}, {Virtual, 10, virtual},
		{Virtual, 11, large}, {Virtual, 50, large},
	} {
		if got := tc.kind.Timers(tc.servers); got != tc.want {
			t.Errorf("kind %d, %d servers: %+v, want %+v", tc.kind, tc.servers, got, tc.want)
		}
	}
}

// TestVirtualNeedsSkewableClock checks the virtual kind refuses a clock
// it cannot give each server a skewable copy of, before starting any.
func TestVirtualNeedsSkewableClock(t *testing.T) {
	for _, clk := range []clock.Clock{nil, clock.Real} {
		if c, err := New(Virtual, Config{Net: memnet.Config{Clock: clk}}); err == nil {
			c.Close()
			t.Errorf("clock %v: New succeeded", clk)
		}
	}
}

func TestForms(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			c := newTestCluster(t, tr.kind, Config{Servers: 3, Units: 2})
			if got := len(c.Live()); got != 3 {
				t.Fatalf("live servers = %d, want 3", got)
			}
			for _, pid := range c.Live() {
				for _, u := range c.Units() {
					if got := c.Server(pid).GroupMembers(core.ContentGroup(u)); len(got) != 3 {
						t.Errorf("p%d sees %s members %v, want 3", pid, u, got)
					}
				}
			}
			if info := c.Info(); info.Servers != 3 || info.Mode != tr.name {
				t.Errorf("Info = %+v", info)
			}
		})
	}
}

func TestCrashMovesPrimary(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			c := newTestCluster(t, tr.kind, Config{Servers: 3, Backups: 1})
			sess, echoes := echoSession(t, c)
			ack(t, sess, echoes, "before")

			unit := c.Units()[0]
			old := c.PrimaryOf(unit, sess.ID)
			if old == ids.Nil {
				t.Fatal("session has no primary")
			}
			if n := c.Primaries()[old]; n < 1 {
				t.Errorf("primary count of p%d = %d, want at least 1", old, n)
			}
			c.Crash(old)
			waitFor(t, "a new primary", func() bool {
				p := c.PrimaryOf(unit, sess.ID)
				return p != ids.Nil && p != old
			})
			ack(t, sess, echoes, "after")
		})
	}
}

func TestRestartComesBackWarm(t *testing.T) {
	const sessions = 3
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			c := newTestCluster(t, tr.kind, Config{Servers: 3, Backups: 1, DataDir: t.TempDir()})
			for i := 0; i < sessions; i++ {
				sess, echoes := echoSession(t, c)
				ack(t, sess, echoes, fmt.Sprintf("s%d", i))
			}
			const victim = ids.ProcessID(3)
			unit := c.Units()[0]
			// At least: a StartSession retried under load may leave an
			// extra session behind.
			waitFor(t, "the victim to hold every session", func() bool {
				return c.Server(victim).DBSessions(unit) >= sessions
			})
			c.Stop(victim)
			if err := c.WaitFormed(20 * time.Second); err != nil {
				t.Fatal(err)
			}
			if err := c.Restart(victim); err != nil {
				t.Fatalf("Restart: %v", err)
			}
			if err := c.WaitFormed(20 * time.Second); err != nil {
				t.Fatal(err)
			}
			if got := c.Metrics(victim).Counter("recovered_sessions").Value(); got < sessions {
				t.Errorf("recovered_sessions = %d, want at least %d", got, sessions)
			}
		})
	}
}

// TestRestartWhileReading restarts a server while another goroutine reads
// its registry, service, server and ops address; run it under -race.
func TestRestartWhileReading(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			// A slow service build holds the restart open, so the reads
			// overlap the harness filling in the new incarnation.
			slow := func(u ids.UnitName) core.Service {
				time.Sleep(5 * time.Millisecond)
				return ledgerService(u)
			}
			c := newTestCluster(t, tr.kind, Config{Servers: 3, Obs: true, Service: slow})
			const victim = ids.ProcessID(2)
			unit := c.Units()[0]
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					// Only the harness's own state: reading a counter or
					// the ledger would synchronize through their locks
					// with the server being started, hiding a race here.
					_, _ = c.Metrics(victim), c.Service(victim, unit)
					_, _ = c.Server(victim), c.OpsAddrs()
					runtime.Gosched()
				}
			}()
			c.Stop(victim)
			err := c.Restart(victim)
			if err == nil {
				err = c.WaitFormed(20 * time.Second)
			}
			close(stop)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if c.OpsAddrs()[victim] == "" {
				t.Error("restarted server has no ops address")
			}
		})
	}
}
