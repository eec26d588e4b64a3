package obs

import (
	"time"

	"hafw/internal/metrics"
)

// NodeStatus is the JSON body served by /statusz: one node's view of the
// cluster at every group scale, its sessions and roles, unit databases,
// durable-store state, and its metric registry rendered for aggregation.
// hastat merges one NodeStatus per node into the cluster table.
type NodeStatus struct {
	// Node is the reporting process.
	Node uint64 `json:"node"`
	// Now is the node's wall clock at capture.
	Now time.Time `json:"now"`
	// DirGroups counts the groups in the node's group-communication
	// directory. Dissolved groups leave it, so it tracks live groups.
	DirGroups int `json:"dir_groups"`
	// Groups lists the node's current group views at every scale
	// (service, content, session).
	Groups []GroupStatus `json:"groups,omitempty"`
	// Units lists the node's configured content units.
	Units []UnitStatus `json:"units,omitempty"`
	// Sessions lists the node's live sessions and roles.
	Sessions []SessionStatus `json:"sessions,omitempty"`
	// Stores lists per-unit durable-store state (absent when running
	// without a data directory).
	Stores []StoreStatus `json:"stores,omitempty"`
	// Counters and Gauges are the registry's scalar metrics.
	Counters map[string]uint64 `json:"counters,omitempty"`
	Gauges   map[string]int64  `json:"gauges,omitempty"`
	// Histograms carries each histogram's full export (buckets included)
	// so scrapers can Merge across nodes and re-derive cluster quantiles.
	Histograms map[string]metrics.HistogramExport `json:"histograms,omitempty"`
	// TraceDropped counts spans evicted from the node's span ring.
	TraceDropped uint64 `json:"trace_dropped"`
}

// GroupStatus is one group view as seen by the reporting node.
type GroupStatus struct {
	// Group is the group name (service group, content/<unit>, or
	// session/<unit>/<sid>).
	Group string `json:"group"`
	// View identifies the current group view.
	View string `json:"view"`
	// Members is the sorted member list.
	Members []uint64 `json:"members"`
}

// UnitStatus summarizes one content unit at the reporting node.
type UnitStatus struct {
	// Unit names the unit.
	Unit string `json:"unit"`
	// Service names the application service type.
	Service string `json:"service"`
	// View is the unit's content-group view ("" before the first view).
	View string `json:"view"`
	// Synced reports whether the node's unit DB is caught up (false while
	// a join-time state exchange is still owed).
	Synced bool `json:"synced"`
	// ExchangeOpen reports whether a state exchange is in progress.
	ExchangeOpen bool `json:"exchange_open"`
	// DBSessions counts session records in the unit database.
	DBSessions int `json:"db_sessions"`
	// Live counts this node's live (primary or backup) replicas.
	Live int `json:"live"`
	// Tombstones counts the removed sessions the unit database still
	// remembers. The count grows with every session served; what they
	// cost in memory is TombstoneRanges.
	Tombstones int `json:"tombstones"`
	// TombstoneRanges counts the ranges the unit database keeps its
	// tombstones as: at most one more than its live sessions once the
	// replicas agree.
	TombstoneRanges int `json:"tombstone_ranges"`
}

// SessionStatus is one live session replica at the reporting node.
type SessionStatus struct {
	// Session identifies the session.
	Session string `json:"session"`
	// Unit is the session's content unit.
	Unit string `json:"unit"`
	// Role is "primary" or "backup".
	Role string `json:"role"`
	// Client is the session's client endpoint.
	Client string `json:"client"`
	// Stamp is the latest context stamp applied at this replica.
	Stamp uint64 `json:"stamp"`
	// IdleMS is how long since the session last saw activity.
	IdleMS int64 `json:"idle_ms"`
}

// StoreStatus is one unit's durable-store state.
type StoreStatus struct {
	// Unit names the unit the store belongs to.
	Unit string `json:"unit"`
	// Dir is the store directory.
	Dir string `json:"dir"`
	// Policy names the fsync policy.
	Policy string `json:"policy"`
	// Segment is the active WAL segment index.
	Segment uint64 `json:"segment"`
	// SegmentBytes is the active segment's size so far.
	SegmentBytes int64 `json:"segment_bytes"`
	// AppendsSinceCheckpoint counts records logged since the last
	// checkpoint.
	AppendsSinceCheckpoint uint64 `json:"appends_since_checkpoint"`
}
