package loadgen

import (
	"fmt"
	"sync"
	"time"

	"hafw/internal/core"
	"hafw/internal/ids"
	"hafw/internal/transport/tcpnet"
	"hafw/internal/wire"
)

// TargetInfo describes the deployment a run measured, for the report.
type TargetInfo struct {
	// Mode is "memnet" or "tcpnet".
	Mode string `json:"mode"`
	// Servers is the server count.
	Servers int `json:"servers"`
	// Replication is the paper's R: replicas per content unit.
	Replication int `json:"replication"`
	// Backups is the paper's B (per-session backups), -1 when unknown
	// (tcpnet mode cannot see the remote configuration).
	Backups int `json:"backups"`
	// PropagationMS is the paper's T in milliseconds, 0 when unknown.
	PropagationMS int64 `json:"propagation_ms"`
}

// Target is a deployment a load run drives: it hands out clients and names
// the content units sessions may open.
type Target interface {
	// NewClient attaches one driver client. onFrom, if non-nil, observes
	// every response's transport-level source (skew accounting).
	NewClient(onFrom func(from ids.EndpointID)) (*core.Client, error)
	// Units lists the content units available for sessions.
	Units() []ids.UnitName
	// Info describes the deployment.
	Info() TargetInfo
	// Close tears down whatever the target owns.
	Close()
}

// TCPConfig parameterizes a target of real hanode processes.
type TCPConfig struct {
	// Addrs maps each server endpoint to its TCP address.
	Addrs map[ids.EndpointID]string
	// World lists the server process IDs (the a-priori service group).
	World []ids.ProcessID
	// BaseClientID numbers driver clients from here. Zero means 5000.
	BaseClientID uint64
	// ListenHost is the local host clients bind ephemeral ports on.
	// Empty means 127.0.0.1.
	ListenHost string
}

// TCPTarget drives an existing hanode deployment over real TCP. Each
// driver client gets its own tcpnet transport on an ephemeral port.
type TCPTarget struct {
	cfg   TCPConfig
	units []ids.UnitName
	repl  int

	mu      sync.Mutex
	nextCID ids.ClientID
}

// NewTCPTarget probes the deployment for its content units.
func NewTCPTarget(cfg TCPConfig) (*TCPTarget, error) {
	if cfg.BaseClientID == 0 {
		cfg.BaseClientID = 5000
	}
	if cfg.ListenHost == "" {
		cfg.ListenHost = "127.0.0.1"
	}
	t := &TCPTarget{cfg: cfg, nextCID: ids.ClientID(cfg.BaseClientID)}
	probe, err := t.NewClient(nil)
	if err != nil {
		return nil, fmt.Errorf("loadgen: probe client: %w", err)
	}
	defer probe.Close()
	units, err := probe.ListUnits()
	if err != nil {
		return nil, fmt.Errorf("loadgen: probe ListUnits: %w", err)
	}
	if len(units) == 0 {
		return nil, fmt.Errorf("loadgen: deployment offers no content units")
	}
	for _, u := range units {
		t.units = append(t.units, u.Unit)
		if u.Replicas > t.repl {
			t.repl = u.Replicas
		}
	}
	return t, nil
}

// NewClient implements Target.
func (t *TCPTarget) NewClient(onFrom func(from ids.EndpointID)) (*core.Client, error) {
	t.mu.Lock()
	t.nextCID++
	cid := t.nextCID
	t.mu.Unlock()
	tr, err := tcpnet.New(tcpnet.Config{
		Self:       ids.ClientEndpoint(cid),
		ListenAddr: t.cfg.ListenHost + ":0",
		Peers:      t.cfg.Addrs,
	})
	if err != nil {
		return nil, err
	}
	var hook func(ids.EndpointID, ids.SessionID, uint64, wire.Message)
	if onFrom != nil {
		hook = func(from ids.EndpointID, _ ids.SessionID, _ uint64, _ wire.Message) { onFrom(from) }
	}
	return core.NewClient(core.ClientConfig{
		Self:           cid,
		Transport:      tr,
		Servers:        append([]ids.ProcessID(nil), t.cfg.World...),
		RequestTimeout: time.Second,
		Retries:        5,
		OnResponseFrom: hook,
	})
}

// Units implements Target.
func (t *TCPTarget) Units() []ids.UnitName { return append([]ids.UnitName(nil), t.units...) }

// Info implements Target.
func (t *TCPTarget) Info() TargetInfo {
	return TargetInfo{
		Mode:        "tcpnet",
		Servers:     len(t.cfg.World),
		Replication: t.repl,
		Backups:     -1,
	}
}

// Close implements Target. The remote processes are not ours to stop.
func (t *TCPTarget) Close() {}
