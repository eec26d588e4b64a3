// Quickstart: the smallest complete service built on the framework.
//
// It defines a one-file "greeting" service (session context = the
// client's chosen name and a greeting counter), brings up three replicated
// servers on an in-memory network, talks to them through a client that
// only ever addresses abstract groups, kills the primary mid-session, and
// shows the session surviving with its context intact.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"hafw/internal/core"
	"hafw/internal/ids"
	"hafw/internal/transport/memnet"
	"hafw/internal/waitx"
	"hafw/internal/wire"
)

// --- the service: requests, responses, session state ---

// SetName is a context update: the client tells the service its name.
type SetName struct{ Name string }

// WireName implements wire.Message.
func (SetName) WireName() string { return "quickstart.SetName" }

// Greet asks for a greeting.
type Greet struct{}

// WireName implements wire.Message.
func (Greet) WireName() string { return "quickstart.Greet" }

// Greeting is the response.
type Greeting struct{ Text string }

// WireName implements wire.Message.
func (Greeting) WireName() string { return "quickstart.Greeting" }

func init() {
	wire.Register(SetName{})
	wire.Register(Greet{})
	wire.Register(Greeting{})
	wire.Register(greeterCtx{})
}

// greeterService implements core.Service.
type greeterService struct{}

func (greeterService) NewSession(unit ids.UnitName, sid ids.SessionID, client ids.ClientID) core.Session {
	return &greeterSession{}
}

// greeterSession implements core.Session. Its context — the name and the
// greeting count — is what the framework replicates at three freshness
// levels.
type greeterSession struct {
	mu     sync.Mutex
	name   string
	count  int
	active bool
	r      core.Responder
}

//hafw:handledby -
type greeterCtx struct {
	Name  string
	Count int
}

// WireName implements wire.Message.
func (greeterCtx) WireName() string { return "quickstart.greeterCtx" }

func (s *greeterSession) ApplyUpdate(body wire.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch m := body.(type) {
	case SetName:
		s.name = m.Name
	case Greet:
		s.count++
		if s.active && s.r != nil {
			s.r.Send(Greeting{Text: fmt.Sprintf("hello %s, greeting #%d", s.name, s.count)})
		}
	}
}

func (s *greeterSession) Activate(r core.Responder) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.active, s.r = true, r
}

func (s *greeterSession) Deactivate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.active, s.r = false, nil
}

func (s *greeterSession) Close() { s.Deactivate() }

func (s *greeterSession) Snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return core.EncodeContext(greeterCtx{Name: s.name, Count: s.count})
}

func (s *greeterSession) Restore(ctx []byte) {
	c, ok := core.DecodeContext[greeterCtx](ctx)
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.name, s.count = c.Name, c.Count
}

func (s *greeterSession) Sync(ctx []byte) {
	c, ok := core.DecodeContext[greeterCtx](ctx)
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.Count > s.count {
		s.count = c.Count
	}
}

// --- the deployment ---

func main() {
	const unit ids.UnitName = "greetings"
	net := memnet.New(memnet.Config{})
	defer net.Close()
	world := []ids.ProcessID{1, 2, 3}

	var servers []*core.Server
	for _, pid := range world {
		ep, err := net.Attach(ids.ProcessEndpoint(pid))
		if err != nil {
			log.Fatal(err)
		}
		srv, err := core.NewServer(core.Config{
			Self:      pid,
			Transport: ep,
			World:     world,
			Units: []core.UnitConfig{{
				Unit:              unit,
				Service:           greeterService{},
				Backups:           1,                     // the paper's B
				PropagationPeriod: 50 * time.Millisecond, // the paper's T
			}},
			FDInterval: 10 * time.Millisecond, FDTimeout: 60 * time.Millisecond,
			RoundTimeout: 100 * time.Millisecond, AckInterval: 15 * time.Millisecond,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			log.Fatal(err)
		}
		defer srv.Stop()
		servers = append(servers, srv)
	}
	fmt.Println("▸ three servers up, replicating content unit \"greetings\" (B=1, T=50ms)")

	// A client: it knows the service group a priori and nothing else.
	cep, err := net.Attach(ids.ClientEndpoint(100))
	if err != nil {
		log.Fatal(err)
	}
	client, err := core.NewClient(core.ClientConfig{Self: 100, Transport: cep, Servers: world})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	if err := client.WaitUnit(unit, len(world), 10*time.Second); err != nil {
		log.Fatal(err)
	}
	units, err := client.ListUnits()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("▸ service offers: %v\n", units)

	greetings := make(chan Greeting, 16)
	sess, err := client.StartSession(unit, func(seq uint64, body wire.Message) {
		if g, ok := body.(Greeting); ok {
			greetings <- g
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("▸ session %v open; all requests go to abstract group %q\n", sess.ID, sess.Group)

	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	must(sess.Send(SetName{Name: "Ada"}))
	must(sess.Send(Greet{}))
	fmt.Printf("▸ got: %q\n", (<-greetings).Text)

	// Kill whoever is the primary; the client does not change a thing.
	victim := servers[0].PrimaryOf(unit, sess.ID)
	net.Crash(ids.ProcessEndpoint(victim))
	fmt.Printf("▸ crashed the primary (%v) mid-session...\n", victim)

	deadline := time.Now().Add(10 * time.Second)
	for {
		must(sess.Send(Greet{}))
		if g, ok := waitx.Recv(greetings, 300*time.Millisecond); ok {
			fmt.Printf("▸ got after failover: %q\n", g.Text)
			fmt.Println("▸ the name survived (backup context) and the count resumed (propagated context)")
			must(sess.End())
			fmt.Println("▸ session ended cleanly — quickstart complete")
			return
		}
		if time.Now().After(deadline) {
			log.Fatal("failover never completed")
		}
	}
}
