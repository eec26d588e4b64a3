package core

import (
	"reflect"
	"testing"
	"time"

	"hafw/internal/ids"
	"hafw/internal/testutil"
	"hafw/internal/transport/memnet"
)

// TestPartialReplication exercises the paper's partial-replication model
// (§2: "we do not require that every server provide every content unit of
// the whole service. Thus, the replication is partial, not total"):
// overlapping unit sets across servers, per-unit content groups, and
// failovers confined to each unit's own replicas.
func TestPartialReplication(t *testing.T) {
	const (
		unitA ids.UnitName = "alpha"
		unitB ids.UnitName = "beta"
	)
	net := memnet.New(memnet.Config{})
	t.Cleanup(net.Close)
	world := []ids.ProcessID{1, 2, 3}

	// p1 serves only alpha, p3 serves only beta, p2 serves both.
	unitsFor := map[ids.ProcessID][]ids.UnitName{
		1: {unitA},
		2: {unitA, unitB},
		3: {unitB},
	}
	servers := make(map[ids.ProcessID]*Server)
	svcs := make(map[ids.ProcessID]map[ids.UnitName]*testService)
	for _, pid := range world {
		ep, err := net.Attach(ids.ProcessEndpoint(pid))
		if err != nil {
			t.Fatal(err)
		}
		svcs[pid] = make(map[ids.UnitName]*testService)
		var ucs []UnitConfig
		for _, u := range unitsFor[pid] {
			svc := newTestService(pid)
			svcs[pid][u] = svc
			ucs = append(ucs, UnitConfig{
				Unit: u, Service: svc, Backups: 1, PropagationPeriod: 50 * time.Millisecond,
			})
		}
		srv, err := NewServer(Config{
			Self: pid, Transport: ep, World: world, Units: ucs,
			FDInterval:   10 * time.Millisecond * testutil.TimeScale,
			FDTimeout:    60 * time.Millisecond * testutil.TimeScale,
			RoundTimeout: 100 * time.Millisecond * testutil.TimeScale,
			AckInterval:  15 * time.Millisecond * testutil.TimeScale,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Stop)
		servers[pid] = srv
	}

	// Content groups reflect the partial layout, and every server is in
	// the full service group: a server still alone in it would answer
	// ListUnits itself.
	waitFor(t, 30*time.Second, func() bool {
		for _, srv := range servers {
			if !reflect.DeepEqual(srv.GroupMembers(ServiceGroup), world) {
				return false
			}
		}
		return reflect.DeepEqual(servers[1].GroupMembers(ContentGroup(unitA)), []ids.ProcessID{1, 2}) &&
			reflect.DeepEqual(servers[1].GroupMembers(ContentGroup(unitB)), []ids.ProcessID{2, 3})
	}, "partial content groups form")

	cep, err := net.Attach(ids.ClientEndpoint(500))
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(ClientConfig{
		Self: 500, Transport: cep, Servers: world,
		RequestTimeout: 400 * time.Millisecond * testutil.TimeScale,
		Retries:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })

	// Discovery lists both units with their actual replication degrees.
	units, err := client.ListUnits()
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 2 {
		t.Fatalf("units = %+v", units)
	}
	for _, u := range units {
		if u.Replicas != 2 {
			t.Errorf("unit %s has %d replicas, want 2", u.Unit, u.Replicas)
		}
	}

	// Sessions on both units work concurrently.
	sessA, err := client.StartSession(unitA, nil)
	if err != nil {
		t.Fatalf("start on alpha: %v", err)
	}
	sessB, err := client.StartSession(unitB, nil)
	if err != nil {
		t.Fatalf("start on beta: %v", err)
	}
	if err := sessA.Send(updReq{S: "a1"}); err != nil {
		t.Fatal(err)
	}
	if err := sessB.Send(updReq{S: "b1"}); err != nil {
		t.Fatal(err)
	}

	// Primaries must come from each unit's own replica set.
	pa := servers[2].PrimaryOf(unitA, sessA.ID)
	pb := servers[2].PrimaryOf(unitB, sessB.ID)
	if pa != 1 && pa != 2 {
		t.Fatalf("alpha primary %v outside its replicas", pa)
	}
	if pb != 2 && pb != 3 {
		t.Fatalf("beta primary %v outside its replicas", pb)
	}

	// Crash p2 — the only overlap. Alpha must fail over to p1, beta to p3.
	net.Crash(ids.ProcessEndpoint(2))
	waitFor(t, 30*time.Second, func() bool {
		return servers[1].PrimaryOf(unitA, sessA.ID) == 1 &&
			servers[3].PrimaryOf(unitB, sessB.ID) == 3
	}, "each unit fails over within its own replica set")

	// The surviving replicas saw the updates (they were backups or
	// primaries of their unit).
	waitFor(t, 20*time.Second, func() bool {
		tsA := svcs[1][unitA].session(sessA.ID)
		tsB := svcs[3][unitB].session(sessB.ID)
		return tsA != nil && len(tsA.snapshotCtx().Updates) == 1 &&
			tsB != nil && len(tsB.snapshotCtx().Updates) == 1
	}, "contexts survived on both units")
}
