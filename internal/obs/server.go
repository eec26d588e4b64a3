package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"hafw/internal/metrics"
)

// ServerConfig wires a node's observability state into the ops HTTP
// endpoints. Every field is optional; absent state renders as empty.
type ServerConfig struct {
	// Registry is the node's metric registry (served by /metrics and
	// embedded in /statusz).
	Registry *metrics.Registry
	// Tracer is the node's span ring (served by /debug/trace).
	Tracer *Tracer
	// Status produces the node's current NodeStatus (served by /statusz).
	Status func() NodeStatus
	// Health reports nil when the node is serving (served by /healthz).
	Health func() error
}

// handler implements the ops endpoints over one node's state.
type handler struct {
	cfg ServerConfig

	mu          sync.Mutex
	spanDropped uint64 // last value mirrored into the registry
}

// NewHandler builds the ops http.Handler: /metrics, /statusz, /healthz,
// /debug/trace, and /debug/pprof/*.
func NewHandler(cfg ServerConfig) http.Handler {
	h := &handler{cfg: cfg}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", h.metrics)
	mux.HandleFunc("/statusz", h.statusz)
	mux.HandleFunc("/healthz", h.healthz)
	mux.HandleFunc("/debug/trace", h.trace)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// syncDropCounters mirrors the span ring's eviction count into the
// registry's trace_events_dropped counter family so it rides the normal
// exposition.
func (h *handler) syncDropCounters() {
	if h.cfg.Registry == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if d := h.cfg.Tracer.Dropped(); d > h.spanDropped {
		h.cfg.Registry.Counter(`trace_events_dropped{buffer="spans"}`).Add(d - h.spanDropped)
		h.spanDropped = d
	}
}

func (h *handler) metrics(w http.ResponseWriter, r *http.Request) {
	if h.cfg.Registry == nil {
		http.Error(w, "no metrics registry", http.StatusNotFound)
		return
	}
	h.syncDropCounters()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = WriteProm(w, h.cfg.Registry)
}

func (h *handler) statusz(w http.ResponseWriter, r *http.Request) {
	var st NodeStatus
	if h.cfg.Status != nil {
		st = h.cfg.Status()
	}
	st.Now = time.Now()
	if h.cfg.Registry != nil {
		st.Counters = h.cfg.Registry.Counters()
		st.Gauges = h.cfg.Registry.Gauges()
		st.Histograms = make(map[string]metrics.HistogramExport)
		for name, hist := range h.cfg.Registry.Histograms() {
			st.Histograms[name] = hist.Export()
		}
	}
	st.TraceDropped = h.cfg.Tracer.Dropped()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(st)
}

func (h *handler) healthz(w http.ResponseWriter, r *http.Request) {
	if h.cfg.Health != nil {
		if err := h.cfg.Health(); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (h *handler) trace(w http.ResponseWriter, r *http.Request) {
	dump := TraceDump{
		Node:    h.cfg.Tracer.Node(),
		Dropped: h.cfg.Tracer.Dropped(),
		Spans:   h.cfg.Tracer.Spans(),
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(dump)
}

// Serve starts the ops server on addr (for example ":7070" or
// "127.0.0.1:0") and returns the listening address and a shutdown
// function. The listener is bound synchronously so callers can scrape
// immediately; requests are served on a background goroutine.
func Serve(addr string, cfg ServerConfig) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: NewHandler(cfg)}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}
