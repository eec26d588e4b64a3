package exp

import (
	"fmt"
	"time"
)

// Runner produces one experiment's table. Quick mode shrinks trial counts
// so the full suite runs in CI time; full mode matches EXPERIMENTS.md.
type Runner struct {
	// ID is the experiment identifier.
	ID string
	// Name is a short description.
	Name string
	// Run executes the experiment.
	Run func(quick bool) (Table, error)
}

// Experiments lists every runner in DESIGN.md order.
func Experiments() []Runner {
	return []Runner{
		{ID: "E1", Name: "single primary per session (live)", Run: func(quick bool) (Table, error) {
			sessions := 6
			if quick {
				sessions = 3
			}
			return E1SinglePrimary(sessions)
		}},
		{ID: "E2", Name: "total loss vs. replication (model)", Run: func(quick bool) (Table, error) {
			hours := 200.0
			if quick {
				hours = 20
			}
			return E2ReplicationSweep(42, hours), nil
		}},
		{ID: "E3", Name: "lost context updates (model + live)", Run: func(quick bool) (Table, error) {
			trials, live := 400000, 6
			if quick {
				trials, live = 40000, 2
			}
			model := E3ModelLostUpdate(7, trials)
			liveT, err := E3LiveLostUpdate(live)
			if err != nil {
				return model, err
			}
			return mergeTables(model, liveT), nil
		}},
		{ID: "E4", Name: "duplicate responses on failover (model + live)", Run: func(quick bool) (Table, error) {
			trials := 200000
			if quick {
				trials = 20000
			}
			model := E4ModelDuplicates(11, trials)
			liveT, err := E4DuplicateWindow()
			if err != nil {
				return model, err
			}
			return mergeTables(model, liveT), nil
		}},
		{ID: "E5", Name: "takeover latency by reconfiguration kind (live)", Run: fixed(E5Takeover)},
		{ID: "E6", Name: "load vs. T and B (model + live)", Run: func(quick bool) (Table, error) {
			sessions := 16
			if quick {
				sessions = 8
			}
			model := E6ModelLoad()
			liveT, err := E6LoadSweep(sessions, 25*time.Millisecond)
			if err != nil {
				return model, err
			}
			return mergeTables(model, liveT), nil
		}},
		{ID: "E7", Name: "dual primary needs non-transitivity (live)", Run: fixed(E7DualPrimary)},
		{ID: "E8", Name: "migration transparency (live)", Run: fixed(E8Migration)},
		{ID: "E9", Name: "MPEG takeover policies (live)", Run: fixed(E9MPEGPolicy)},
		{ID: "E10", Name: "replicated state machine extension (live)", Run: func(quick bool) (Table, error) {
			ops := 20
			if quick {
				ops = 5
			}
			return E10RSM(ops)
		}},
		{ID: "E11", Name: "the [2] VoD instance (live)", Run: fixed(E11VoDInstance)},
		{ID: "E12", Name: "auto-configuring B (model)", Run: func(quick bool) (Table, error) {
			trials := 2000000
			if quick {
				trials = 200000
			}
			return E12AutoConfig(13, trials), nil
		}},
		{ID: "E13", Name: "restart recovery time and rejoin transfer (live)", Run: func(quick bool) (Table, error) {
			return E13RestartRecovery(quick)
		}},
		{ID: "E14", Name: "capacity vs. server count and backups (live load)", Run: E14Capacity},
		{ID: "E15", Name: "latency under primary failover mid-load (live load)", Run: E15FailoverLatency},
		{ID: "E16", Name: "observability overhead and staleness tracking (live load)", Run: E16Observability},
		{ID: "E17", Name: "streaming through primary failover vs. B and T (live, tcpnet)", Run: E17Streaming},
		{ID: "E18", Name: "seeded churn sweep under the deterministic simulator (virtual clock)", Run: E18ChurnSweep},
	}
}

// fixed adapts an experiment with no quick mode.
func fixed(run func() (Table, error)) func(bool) (Table, error) {
	return func(bool) (Table, error) { return run() }
}

// ByID returns the runner with the given ID.
func ByID(id string) (Runner, error) {
	for _, r := range Experiments() {
		if r.ID == id {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("exp: unknown experiment %q", id)
}

// mergeTables concatenates a model table and a live table under the model
// table's heading.
func mergeTables(model, live Table) Table {
	out := model
	out.Notes = append(out.Notes, "— live counterpart ("+live.ID+") —")
	out.Notes = append(out.Notes, live.String())
	return out
}
