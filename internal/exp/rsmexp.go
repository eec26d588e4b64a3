package exp

import (
	"fmt"
	"sync"
	"time"

	"hafw/internal/cluster"
	"hafw/internal/gcs"
	"hafw/internal/ids"
	"hafw/internal/rsm"
	"hafw/internal/transport/memnet"
	"hafw/internal/wire"
)

// CounterIncr is the E10 state-machine command.
type CounterIncr struct{}

// WireName implements wire.Message.
func (CounterIncr) WireName() string { return "exp.CounterIncr" }

// CounterValue is the E10 command result and the counter's snapshot. It
// rides inside the RSM reply envelope's typed Result field and inside
// snapshots rather than being dispatched on its own.
//
//hafw:handledby -
type CounterValue struct {
	// N is the counter after the increment.
	N uint64
}

// WireName implements wire.Message.
func (CounterValue) WireName() string { return "exp.CounterValue" }

func init() {
	wire.Register(CounterIncr{})
	wire.Register(CounterValue{})
}

// counterSM is a replicated counter.
type counterSM struct {
	mu sync.Mutex
	n  uint64
}

// Apply implements rsm.StateMachine.
//
//hafw:deterministic
func (c *counterSM) Apply(cmd wire.Message) wire.Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := cmd.(CounterIncr); ok {
		c.n++
	}
	return CounterValue{N: c.n}
}

// Snapshot implements rsm.StateMachine.
func (c *counterSM) Snapshot() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, err := wire.EncodeMessage(CounterValue{N: c.n})
	if err != nil {
		panic(err)
	}
	return b
}

// Restore implements rsm.StateMachine.
func (c *counterSM) Restore(data []byte) {
	m, _ := wire.DecodeMessage(data)
	v, ok := m.(CounterValue)
	if !ok {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n = v.N
}

func (c *counterSM) value() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// E10RSM exercises the replicated-state-machine extension: shared-state
// updates stay consistent across concurrent writers, a crash, and a
// snapshot-bootstrapped joiner.
func E10RSM(opsPerNode int) (Table, error) {
	t := Table{
		ID:      "E10",
		Title:   "replicated state machine extension (shared content updates)",
		Claim:   "\"integrate into the design a mechanism for consistently updating the state that is shared between clients, using the well-known replicated state machine technique\" (§5)",
		Columns: []string{"phase", "expected counter", "replica values", "consistent"},
	}
	const group ids.GroupName = "rsm/counter"
	net := memnet.New(memnet.Config{})
	defer net.Close()

	type node struct {
		proc *gcs.Process
		sm   *counterSM
		rep  *rsm.Replica
	}
	nodes := map[ids.ProcessID]*node{}
	pids := []ids.ProcessID{1, 2, 3}
	timers := cluster.Memnet.Timers()
	add := func(pid ids.ProcessID, boot bool) error {
		ep, err := net.Attach(ids.ProcessEndpoint(pid))
		if err != nil {
			return err
		}
		nd := &node{sm: &counterSM{}}
		proc, err := gcs.NewProcess(gcs.Config{
			Self: pid, Transport: ep, World: pids,
			OnEvent:    func(e gcs.Event) { nd.rep.HandleEvent(e) },
			FDInterval: timers.FDInterval, FDTimeout: timers.FDTimeout,
			RoundTimeout: timers.RoundTimeout, AckInterval: timers.AckInterval,
		})
		if err != nil {
			return err
		}
		nd.proc = proc
		rep, err := rsm.New(rsm.Config{Group: group, Machine: nd.sm, Proc: proc, Bootstrapped: boot})
		if err != nil {
			return err
		}
		nd.rep = rep
		proc.Start()
		if err := proc.Join(group); err != nil {
			return err
		}
		nodes[pid] = nd
		return nil
	}
	for _, pid := range pids {
		if err := add(pid, true); err != nil {
			return t, err
		}
	}
	defer func() {
		for _, nd := range nodes {
			nd.proc.Stop()
		}
	}()
	// Wait for group formation.
	deadline := time.Now().Add(10 * time.Second)
	for {
		ok := true
		for _, nd := range nodes {
			if len(nd.proc.GroupMembers(group)) != len(pids) {
				ok = false
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			return t, fmt.Errorf("rsm group never formed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	expected := uint64(0)
	snapshot := func(phase string, replicas []ids.ProcessID) {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			done := true
			for _, pid := range replicas {
				if nodes[pid].sm.value() != expected {
					done = false
				}
			}
			if done {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		var vals []string
		consistent := true
		for _, pid := range replicas {
			v := nodes[pid].sm.value()
			vals = append(vals, fmt.Sprintf("%s=%d", pid, v))
			if v != expected {
				consistent = false
			}
		}
		t.AddRow(phase, fmt.Sprintf("%d", expected), fmt.Sprintf("%v", vals), fmt.Sprintf("%v", consistent))
	}

	// Phase 1: concurrent writers.
	var wg sync.WaitGroup
	var submitErr error
	var errMu sync.Mutex
	for _, pid := range pids {
		wg.Add(1)
		go func(pid ids.ProcessID) {
			defer wg.Done()
			for i := 0; i < opsPerNode; i++ {
				if _, err := nodes[pid].rep.Submit(CounterIncr{}); err != nil {
					errMu.Lock()
					submitErr = err
					errMu.Unlock()
					return
				}
			}
		}(pid)
	}
	wg.Wait()
	if submitErr != nil {
		return t, submitErr
	}
	expected += uint64(opsPerNode * len(pids))
	snapshot("concurrent writers", pids)

	// Phase 2: crash one replica; survivors keep going.
	net.Crash(ids.ProcessEndpoint(3))
	survivors := []ids.ProcessID{1, 2}
	// The view change may be in flight: retry the first submit.
	deadline = time.Now().Add(10 * time.Second)
	for {
		if _, err := nodes[1].rep.Submit(CounterIncr{}); err == nil {
			expected++
			break
		}
		if time.Now().After(deadline) {
			return t, fmt.Errorf("survivor submit never succeeded")
		}
	}
	for i := 0; i < opsPerNode-1; i++ {
		if _, err := nodes[1].rep.Submit(CounterIncr{}); err != nil {
			return t, err
		}
		expected++
	}
	snapshot("after crash of one replica", survivors)

	// Phase 3: a fresh joiner bootstraps from the snapshot.
	pids = append(pids, 4)
	if err := add(4, false); err != nil {
		return t, err
	}
	for _, pid := range survivors {
		nodes[pid].proc.AddPeer(4)
	}
	deadline = time.Now().Add(10 * time.Second)
	for !nodes[4].rep.Bootstrapped() {
		if time.Now().After(deadline) {
			return t, fmt.Errorf("joiner never bootstrapped")
		}
		time.Sleep(10 * time.Millisecond)
	}
	snapshot("after joiner bootstrap", []ids.ProcessID{1, 2, 4})

	t.AddNote("all replicas agree on the counter after concurrent writes, a crash, and a snapshot-based join")
	return t, nil
}
