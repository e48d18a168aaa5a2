package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"time"
)

// The shared HTTP-server timeouts. Every listener in this repository —
// the inspection server here and the shogund daemon — goes through
// HardenedHTTPServer, so a slow or stalled client can never pin a
// connection (and its goroutine) forever.
const (
	// HTTPReadHeaderTimeout bounds slowloris-style dribbled headers.
	HTTPReadHeaderTimeout = 5 * time.Second
	// HTTPReadTimeout bounds reading one full request (headers + body).
	HTTPReadTimeout = 30 * time.Second
	// HTTPWriteTimeout bounds writing one response. It is deliberately
	// generous: /debug/pprof/profile streams for 30s by default and
	// simulation queries can legitimately run tens of seconds.
	HTTPWriteTimeout = 2 * time.Minute
	// HTTPIdleTimeout reaps idle keep-alive connections.
	HTTPIdleTimeout = 2 * time.Minute
)

// HardenedHTTPServer returns an http.Server for h with the standard
// timeouts above. Both the telemetry inspection server and the shogund
// daemon construct their servers here.
func HardenedHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: HTTPReadHeaderTimeout,
		ReadTimeout:       HTTPReadTimeout,
		WriteTimeout:      HTTPWriteTimeout,
		IdleTimeout:       HTTPIdleTimeout,
	}
}

// Server is the opt-in live inspection endpoint (-http flag): a stdlib
// net/http server exposing JSON telemetry snapshots, plain-text progress
// pages, expvar (/debug/vars) and pprof (/debug/pprof/). It binds
// eagerly — NewServer fails fast on a malformed or unusable address
// instead of panicking mid-run — and ":0" picks a free port, reported by
// Addr. The underlying http.Server comes from HardenedHTTPServer, so a
// slow client cannot hold a connection open indefinitely.
type Server struct {
	ln  net.Listener
	mux *http.ServeMux
	srv *http.Server

	mu    sync.Mutex
	paths []string
}

// ValidateAddr rejects obviously malformed listen addresses up front
// (flag validation) without binding a socket.
func ValidateAddr(addr string) error {
	if addr == "" {
		return fmt.Errorf("telemetry: empty listen address")
	}
	if _, _, err := net.SplitHostPort(addr); err != nil {
		return fmt.Errorf("telemetry: bad listen address %q (want host:port, e.g. \":8080\" or \":0\"): %v", addr, err)
	}
	return nil
}

// NewServer validates addr, binds it, and starts serving in a
// background goroutine.
func NewServer(addr string) (*Server, error) {
	if err := ValidateAddr(addr); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	s := &Server{ln: ln, mux: mux, srv: HardenedHTTPServer(mux)}
	s.paths = append(s.paths, MountDebug(mux)...)
	mux.HandleFunc("/", s.index)
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return s, nil
}

// MountDebug registers the process debug handlers on mux, expvar at
// /debug/vars and pprof under /debug/pprof/, and returns the index
// paths. The inspection server and the shogund daemon mount the same
// set.
func MountDebug(mux *http.ServeMux) []string {
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return []string{"/debug/vars", "/debug/pprof/"}
}

// Addr reports the bound address (resolves ":0" to the picked port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the listener down.
func (s *Server) Close() error { return s.srv.Close() }

func (s *Server) index(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	s.mu.Lock()
	paths := append([]string(nil), s.paths...)
	s.mu.Unlock()
	sort.Strings(paths)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "shogun live inspection endpoints:")
	for _, p := range paths {
		fmt.Fprintln(w, " ", p)
	}
}

func (s *Server) register(path string, h http.HandlerFunc) {
	s.mux.HandleFunc(path, h)
	s.mu.Lock()
	s.paths = append(s.paths, path)
	s.mu.Unlock()
}

// HandleJSON serves fn's return value as indented JSON at path. fn runs
// per request and must be safe for concurrent use (snapshot under the
// producer's lock).
func (s *Server) HandleJSON(path string, fn func() any) {
	s.register(path, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(fn()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// HandleText serves fn's return value as plain text at path (the bench
// grid's progress page). fn must be safe for concurrent use.
func (s *Server) HandleText(path string, fn func() string) {
	s.register(path, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, fn())
	})
}

// runVars is the process-wide expvar map live runs publish into
// (expvar's registry is global and panics on duplicate names, so the map
// is created once and keys are overwritten per run).
var (
	runVarsOnce sync.Once
	runVars     *expvar.Map
)

// PublishVar exposes fn under the "shogun" expvar map (/debug/vars). fn
// must be safe for concurrent use; re-publishing a key replaces it.
func PublishVar(key string, fn func() any) {
	runVarsOnce.Do(func() { runVars = expvar.NewMap("shogun") })
	runVars.Set(key, expvar.Func(fn))
}

// RunSnapshot bundles one run's live telemetry for JSON export: the
// sampler series plus named histogram digests.
type RunSnapshot struct {
	Samples    *TimeSeries            `json:"samples,omitempty"`
	Histograms map[string]HistSummary `json:"histograms,omitempty"`
}
