// Command shogund is the long-lived mining-as-a-service daemon: it
// serves count/mine/simulate queries over HTTP+JSON with admission
// control (bounded worker pool + bounded wait queue, overflow shed with
// 429), per-request governor budgets, a memory-budgeted single-flight
// graph/schedule cache, per-request panic isolation, and a graceful
// drain on SIGTERM/SIGINT (stop admitting, finish or cancel in-flight
// work within -drain, exit 0).
//
// Usage:
//
//	shogund -addr :8477 -workers 8 -queue 16
//	curl -s localhost:8477/v1/count -d '{"dataset":"wi","pattern":"tc"}'
//	curl -s localhost:8477/readyz
//
// Endpoints: POST /v1/count, /v1/mine, /v1/simulate; GET /healthz,
// /readyz, /statz, /metrics (Prometheus text), /v1/requests and
// /v1/requests/{id} (live in-flight inspection; ?format=chrome exports a
// per-request Chrome trace). Request observability is always on: every
// response carries a trace ID and its per-phase time split, and /statz
// and /metrics count requests from the same per-(endpoint, outcome)
// families. See DESIGN.md "Serving & overload behavior"
// and "Request observability" for the request schema, the typed-error
// status table and the tracing plane.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"shogun/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8477", "listen address (\":0\" picks a free port)")
		workers   = flag.Int("workers", 4, "worker pool size (concurrently executing queries)")
		queue     = flag.Int("queue", -1, "wait-queue depth; overflow is shed with 429 (-1 = 2*workers)")
		cacheMB   = flag.Int64("cache-mb", 256, "graph/schedule cache memory budget in MiB")
		bodyMB    = flag.Int64("max-body-mb", 8, "request body (graph upload) cap in MiB")
		maxWall   = flag.Duration("max-wall", 30*time.Second, "per-request wall-clock ceiling (requests may tighten, not exceed)")
		defWall   = flag.Duration("default-wall", 0, "wall budget when a request specifies none (0 = -max-wall)")
		maxEvents = flag.Int64("max-events", 0, "per-request simulation event ceiling (0 = none)")
		miners    = flag.Int("miner-workers", 1, "software-miner goroutines per request")
		drain     = flag.Duration("drain", 15*time.Second, "graceful-drain deadline on SIGTERM/SIGINT")
		addrFile  = flag.String("addr-file", "", "write the bound address to this file once listening (smoke tests)")
		verbose   = flag.Bool("v", false, "log one line per served request")

		accessLog   = flag.String("access-log", "", "structured JSON access log path (\"-\" = stderr)")
		slowLog     = flag.String("slow-log", "", "slow-request log path with phase breakdown + governor snapshot (\"-\" = stderr)")
		slowMS      = flag.Int64("slow-ms", 1000, "slow-request threshold in milliseconds")
		sampleEvery = flag.Int64("sample-every", 4096, "epoch-sampler period in cycles for served simulations (0 = off)")
	)
	flag.Parse()
	opts := daemonOpts{
		cacheMB: *cacheMB, drain: *drain, addrFile: *addrFile, verbose: *verbose,
		accessLog: *accessLog, slowLog: *slowLog,
		slowMS: *slowMS, sampleEvery: *sampleEvery,
	}
	cfg := serve.Config{
		Addr:         *addr,
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheBytes:   *cacheMB << 20,
		MaxBodyBytes: *bodyMB << 20,
		MaxWall:      *maxWall,
		DefaultWall:  *defWall,
		MaxEvents:    *maxEvents,
		MinerWorkers: *miners,
	}
	if err := run(cfg, *queue, opts); err != nil {
		fmt.Fprintln(os.Stderr, "shogund:", err)
		os.Exit(1)
	}
}

// daemonOpts carries the main-level knobs that are not serve.Config
// fields.
type daemonOpts struct {
	cacheMB     int64
	drain       time.Duration
	addrFile    string
	verbose     bool
	accessLog   string
	slowLog     string
	slowMS      int64
	sampleEvery int64
}

// openLog resolves a log-path flag: "" → nil, "-" → stderr, otherwise an
// append-opened file whose closer is returned.
func openLog(path string) (io.Writer, func() error, error) {
	switch path {
	case "":
		return nil, nil, nil
	case "-":
		return os.Stderr, nil, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

func run(cfg serve.Config, queue int, opts daemonOpts) error {
	switch {
	case queue == -1:
		cfg.QueueDepth = 0 // fill() turns 0 into the 2×workers default
	case queue <= 0:
		cfg.QueueDepth = -1 // literally no wait queue: busy pool sheds instantly
	default:
		cfg.QueueDepth = queue
	}
	if opts.verbose {
		cfg.Log = os.Stderr
	}
	// The log files must outlive the drain: the plane's buffered writers
	// are flushed by Drain/Close before these closers run.
	var closers []func() error
	defer func() {
		for _, c := range closers {
			c() //nolint:errcheck // exit path
		}
	}()
	oc := &serve.ObsConfig{
		SlowThreshold: time.Duration(opts.slowMS) * time.Millisecond,
		SampleEvery:   int(opts.sampleEvery),
	}
	if oc.SampleEvery == 0 {
		oc.SampleEvery = -1 // flag 0 means off; ObsConfig 0 means default
	}
	w, closeFn, err := openLog(opts.accessLog)
	if err != nil {
		return fmt.Errorf("access-log: %w", err)
	}
	oc.AccessLog = w
	if closeFn != nil {
		closers = append(closers, closeFn)
	}
	w, closeFn, err = openLog(opts.slowLog)
	if err != nil {
		return fmt.Errorf("slow-log: %w", err)
	}
	oc.SlowLog = w
	if closeFn != nil {
		closers = append(closers, closeFn)
	}
	cfg.Obs = oc
	s, err := serve.New(cfg)
	if err != nil {
		return err
	}
	st := s.StatsSnapshot()
	fmt.Printf("shogund: serving on http://%s/ (workers=%d queue=%d cache=%dMiB drain=%v)\n",
		s.Addr(), st.Admission.Workers, st.Admission.QueueDepth, opts.cacheMB, opts.drain)
	if opts.addrFile != "" {
		if err := os.WriteFile(opts.addrFile, []byte(s.Addr()+"\n"), 0o644); err != nil {
			s.Close()
			return fmt.Errorf("addr-file: %w", err)
		}
	}

	// The serve loop and the signal handler race toward done: on
	// SIGTERM/SIGINT the daemon drains (stop admitting → finish or
	// cancel in-flight → exit 0); a second signal aborts immediately.
	errc := make(chan error, 1)
	go func() { errc <- s.Serve() }()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("shogund: %v: draining (deadline %v)\n", sig, opts.drain)
		drained := make(chan error, 1)
		go func() { drained <- s.Drain(opts.drain) }()
		select {
		case err := <-drained:
			if err != nil {
				return err
			}
			if err := <-errc; err != nil {
				return err
			}
			st := s.StatsSnapshot()
			fmt.Printf("shogund: drained clean (served=%d shed=%d refused=%d)\n",
				st.Served, st.Admission.Shed, st.Admission.Refused)
			return nil
		case sig := <-sigc:
			s.Close()
			return fmt.Errorf("second signal (%v) before drain finished, aborting", sig)
		}
	}
}
