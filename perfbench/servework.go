package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"shogun/internal/datasets"
	"shogun/internal/gen"
	"shogun/internal/graph"
	"shogun/internal/mine"
	"shogun/internal/obs"
	"shogun/internal/pattern"
	"shogun/internal/serve"
)

// serve-mix drives an in-process shogund on loopback with an open-loop
// arrival schedule at one fixed rate, a quarter of the rate (36 requests/s)
// that saturates the daemon's two workers on a quiet 2-CPU host. At half
// that rate a shared host running at half speed saturated the daemon, and
// the queueing made latency grow far faster than the host slowed: p50 and
// p90 spread by 0.19 and 0.29 between runs even at reference speed.
const (
	serveRate = 9.0 // requests per second
	// serveLimit is the latency limit, from each request's due time, that
	// a correct 2xx answer must meet to count towards slo_ok_ratio.
	serveLimit = 250 * time.Millisecond
	// minRequests is the schedule length at --seconds 0.
	minRequests = 12
	// maxPending bounds the request goroutines; beyond it the generator
	// blocks, which shows as gen.lag_ms.
	maxPending = 64
	// poolSize is the number of uploaded graphs simulate requests share.
	poolSize = 4
	// cacheUploads is how many fresh uploads the graph cache holds beside
	// the named dataset and the pool before it must evict.
	cacheUploads = 3
)

// The request mix: shares of count on the named dataset (a cache hit),
// simulate on a pooled upload, and count on a fresh upload (a miss).
const (
	shareCount    = 0.60
	shareSimulate = 0.25
)

type reqKind int

const (
	kindCount reqKind = iota
	kindSimulate
	kindUpload
)

var kindNames = [...]string{"count", "simulate", "upload"}

// planned is one request of the seeded schedule.
type planned struct {
	at     time.Duration // due time after the start of its pass
	kind   reqKind
	path   string
	body   []byte
	golden int64
	trace  string
}

// outcome is what the client saw for one request.
type outcome struct {
	due, sent, done time.Time
	ok              bool   // 2xx with the golden embedding count
	why             string // what failed, when not ok
	resp            serve.Response
}

// requestTrace joins a client span with the server's phases through the
// trace ID the benchmark minted.
type requestTrace struct {
	Trace    string      `json:"trace"`
	Kind     string      `json:"kind"`
	DueNS    int64       `json:"due_ns"`
	SentNS   int64       `json:"sent_ns"`
	DoneNS   int64       `json:"done_ns"`
	OK       bool        `json:"ok"`
	PhasesUS *obs.Phases `json:"phases_us,omitempty"`
}

// serveEnv is a running daemon plus the schedule it will be sent.
type serveEnv struct {
	srv       *serve.Server
	served    chan error
	url       string
	transport *http.Transport
	client    *http.Client
	plan      []planned
}

// rmat generates an uploaded graph; every upload uses the same skew.
func rmat(n, m int, seed int64) *graph.Graph { return gen.RMAT(n, m, 0.57, 0.19, 0.19, seed) }

// graphBytes is the charge the daemon's graph cache puts on a graph.
func graphBytes(g *graph.Graph) int64 {
	return int64(g.NumVertices()+1)*8 + g.NumEdges()*8 + 512
}

// serveSetup builds one complete environment: the seeded schedule and
// uploads, golden counts from the software miner, a started daemon, and
// one warm-up request of each kind so lazy set-up is done before timing.
func serveSetup(cfg runConfig, rec *recorder) (env *serveEnv, err error) {
	root := rec.open("setup", nil)
	defer root.end()
	rng := rand.New(rand.NewSource(cfg.seed))
	n := max(minRequests, int(serveRate*cfg.seconds+0.5))

	ds, err := datasets.Lookup("lj")
	if err != nil {
		return nil, err
	}
	sp := rec.open("datasets.Make", root)
	lj := ds.Make()
	sp.end()
	sp = rec.open("graph.HubIndex", root)
	lj.HubIndex()
	sp.end()
	sp = rec.open("pattern.BuildWith", root)
	tc, err := schedule("tc")
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = rec.open("pattern.BuildWith", root)
	cl4, err := schedule("4cl")
	sp.end()
	if err != nil {
		return nil, err
	}

	upload := func(g *graph.Graph) (string, error) {
		var b strings.Builder
		err := g.WriteEdgeList(&b)
		return b.String(), err
	}
	type job struct {
		path   string
		body   []byte
		golden int64
	}
	count := func(g *graph.Graph, s *pattern.Schedule) int64 {
		sp := rec.open("mine.Count", root)
		defer sp.end()
		return mine.Count(g, s)
	}
	countLJ := job{path: "/v1/count", golden: count(lj, tc)}
	if countLJ.body, err = json.Marshal(serve.Request{Dataset: "lj", Pattern: "tc"}); err != nil {
		return nil, err
	}
	// The pooled graphs do not depend on the seed, so run_s and
	// sim_cycles compare across seeds; the fresh uploads do.
	pool := make([]job, poolSize)
	poolBytes := int64(0)
	for i := range pool {
		g := rmat(1024, 6000, int64(i+1))
		text, err := upload(g)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(serve.Request{Graph: text, Pattern: "4cl", PEs: 4, Split: true, Merge: true})
		if err != nil {
			return nil, err
		}
		pool[i] = job{"/v1/simulate", body, count(g, cl4)}
		poolBytes += graphBytes(g)
	}
	newUpload := func() (job, int64, error) {
		g := rmat(2048, 12000, rng.Int63())
		text, err := upload(g)
		if err != nil {
			return job{}, 0, err
		}
		body, err := json.Marshal(serve.Request{Graph: text, Pattern: "tc"})
		return job{"/v1/count", body, count(g, tc)}, graphBytes(g), err
	}

	env = &serveEnv{}
	// The mix has exact shares; the seed decides the order. Simulates
	// cycle through the pool so every pooled graph is run equally often.
	kinds := make([]reqKind, n)
	nCount, nSim := int(shareCount*float64(n)+0.5), int(shareSimulate*float64(n)+0.5)
	for i := range kinds {
		switch {
		case i < nCount:
			kinds[i] = kindCount
		case i < nCount+nSim:
			kinds[i] = kindSimulate
		default:
			kinds[i] = kindUpload
		}
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	gap := float64(time.Second) / serveRate
	var uploadBytes int64
	sims := 0
	for i, kind := range kinds {
		// Evenly spaced arrivals with seeded jitter of ±40% of the gap,
		// which keeps the order of due times.
		at := time.Duration((float64(i) + 0.5 + 0.8*(rng.Float64()-0.5)) * gap)
		var j job
		switch kind {
		case kindCount:
			j = countLJ
		case kindSimulate:
			j = pool[sims%poolSize]
			sims++
		case kindUpload:
			var size int64
			if j, size, err = newUpload(); err != nil {
				return nil, err
			}
			uploadBytes = max(uploadBytes, size)
		}
		env.plan = append(env.plan, planned{at: at, kind: kind, path: j.path, body: j.body, golden: j.golden,
			trace: fmt.Sprintf("perfbench-%d-%d", cfg.seed, i)})
	}
	warmUpload, size, err := newUpload()
	if err != nil {
		return nil, err
	}
	uploadBytes = max(uploadBytes, size)

	// The graph cache holds the named dataset, the pool and a few
	// uploads, so fresh uploads evict while the hot entries stay.
	cacheBytes := (graphBytes(lj) + poolBytes + cacheUploads*uploadBytes) * 16 / 15
	srv, err := serve.New(serve.Config{
		Addr:         "127.0.0.1:0",
		Workers:      2,
		MinerWorkers: 1,
		CacheBytes:   cacheBytes,
		Obs:          &serve.ObsConfig{},
	})
	if err != nil {
		return nil, err
	}
	env.srv = srv
	env.served = make(chan error, 1)
	go func() { env.served <- srv.Serve() }()
	conns := runtime.NumCPU()
	env.transport = &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	env.client = &http.Client{Transport: env.transport, Timeout: time.Minute}
	env.url = "http://" + srv.Addr()
	defer func() {
		if err != nil {
			env.close()
		}
	}()
	warm := append([]job{countLJ, warmUpload}, pool...)
	for i, j := range warm {
		o := env.do(planned{path: j.path, body: j.body, golden: j.golden, trace: fmt.Sprintf("warmup-%d", i)}, time.Now())
		if !o.ok {
			return nil, fmt.Errorf("warm-up request %s failed", j.path)
		}
	}
	return env, nil
}

// close stops the daemon and waits for its serve loop to return.
func (e *serveEnv) close() error {
	e.transport.CloseIdleConnections()
	err := e.srv.Drain(10 * time.Second)
	if serr := <-e.served; err == nil {
		err = serr
	}
	return err
}

// do sends one request and checks the answer: a 2xx whose embedding
// count equals the golden count and which echoes the minted trace ID.
func (e *serveEnv) do(p planned, due time.Time) (o outcome) {
	o.due, o.sent = due, time.Now()
	defer func() { o.done = time.Now() }()
	req, err := http.NewRequest(http.MethodPost, e.url+p.path, bytes.NewReader(p.body))
	if err != nil {
		o.why = err.Error()
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, p.trace)
	resp, err := e.client.Do(req)
	if err != nil {
		o.why = err.Error()
		return o
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	switch {
	case err != nil:
		o.why = err.Error()
	case resp.StatusCode != http.StatusOK:
		o.why = fmt.Sprintf("status %d: %.200s", resp.StatusCode, body)
	case json.Unmarshal(body, &o.resp) != nil:
		o.why = fmt.Sprintf("undecodable answer %.200q", body)
	case o.resp.Embeddings != p.golden:
		o.why = fmt.Sprintf("%d embeddings, golden %d", o.resp.Embeddings, p.golden)
	case o.resp.Trace != p.trace || o.resp.PhasesUS == nil:
		o.why = fmt.Sprintf("trace %q without phases or not the minted %q", o.resp.Trace, p.trace)
	default:
		o.ok = true
	}
	return o
}

// drive sends plan open-loop: each request is due at the pass start plus
// its offset, whether or not earlier ones have answered.
func (e *serveEnv) drive(plan []planned) []outcome {
	out := make([]outcome, len(plan))
	sem := make(chan struct{}, maxPending)
	var wg sync.WaitGroup
	start := time.Now()
	base := plan[0].at
	for i := range plan {
		due := start.Add(plan[i].at - base)
		time.Sleep(time.Until(due))
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			out[i] = e.do(plan[i], due)
		}(i)
	}
	wg.Wait()
	return out
}

func runServeMix(cfg runConfig) (*report, error) {
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	ref := newHostRef()
	var env *serveEnv
	var setup, setupRef []float64
	for moreSetups(setup) {
		if env != nil {
			if err := env.close(); err != nil {
				return nil, fmt.Errorf("stop set-up daemon: %w", err)
			}
		}
		if err := ref.samples(refSetupCalls); err != nil {
			return nil, err
		}
		setupRef = append(setupRef, median(ref.walls[len(ref.walls)-refSetupCalls:]))
		runtime.GC() // every set-up starts from a collected heap
		t0 := time.Now()
		var err error
		if env, err = serveSetup(cfg, rec); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	rep, err := env.measure(cfg, rec, ref, median(atRef(setup, setupRef)))
	if cerr := env.close(); err == nil && cerr != nil {
		err = fmt.Errorf("stop daemon: %w", cerr)
	}
	return rep, err
}

// The reference kernel runs refSetupCalls times before each set-up, whose
// wall time is divided by their median. While requests are sent it runs
// every gaugeEvery on a thread of its own (about 3% of one CPU), and each
// request is divided by the median CPU time of the calls that started
// within gaugeSpan of its due time. CPU time, because the kernel's wall
// time would grow with the daemon's own load and hide a slower daemon.
const (
	refSetupCalls = 4
	gaugeEvery    = 500 * time.Millisecond
	gaugeSpan     = time.Second
)

// startGauge calls the reference kernel every gaugeEvery until the
// returned function is called, which waits for the gauge to stop.
func startGauge(ref *hostRef) (stop func() error) {
	quit, done := make(chan struct{}), make(chan error, 1)
	go func() {
		tick := time.NewTicker(gaugeEvery)
		defer tick.Stop()
		for {
			if _, _, err := ref.sample(); err != nil {
				done <- err
				return
			}
			select {
			case <-quit:
				done <- nil
				return
			case <-tick.C:
			}
		}
	}()
	return func() error {
		close(quit)
		return <-done
	}
}

func (e *serveEnv) measure(cfg runConfig, rec *recorder, ref *hostRef, setupS float64) (*report, error) {
	rep := newReport()
	score := func(plan []planned, out []outcome) {
		for i, o := range out {
			if o.ok {
				rep.ok()
			} else {
				rep.fail(fmt.Sprintf("%s %s: %s", kindNames[plan[i].kind], plan[i].trace, o.why))
			}
		}
	}
	if !cfg.trace {
		gauge := newHostRef()
		m := startMeter()
		stop := startGauge(gauge)
		out := e.drive(e.plan)
		err := stop()
		c := m.end()
		if err != nil {
			return nil, err
		}
		c.cpu -= time.Duration(sum(gauge.cpu) * float64(time.Second))
		score(e.plan, out)
		var lat, raw, run []float64
		slo, sims, cycles := 0, 0, 0.0
		for i, o := range out {
			if !o.ok {
				continue
			}
			l := o.done.Sub(o.due)
			at := gauge.scaleAround(o.due, gaugeSpan)
			lat = append(lat, l.Seconds()*at)
			raw = append(raw, l.Seconds())
			if l <= serveLimit {
				slo++
			}
			if e.plan[i].kind == kindSimulate {
				sims++
				cycles += float64(o.resp.Cycles)
				run = append(run, float64(o.resp.PhasesUS.Run)/1e6*at)
			}
		}
		rep.metrics["setup_s"] = setupS
		rep.metrics["run_s"] = median(run)
		if sims > 0 {
			rep.metrics["sim_cycles"] = cycles / float64(sims)
		}
		rep.metrics["slo_ok_ratio"] = float64(slo) / float64(len(out))
		rep.metrics["cpu_ms_per_req"] = c.cpu.Seconds() * 1e3 / float64(len(out)) * gauge.scale()
		rep.putCosts(c, len(out))
		rep.putLatency(lat)
		q1, q2, q3 := quartiles(raw)
		rep.notef("measured latency quartiles %.4g / %.4g / %.4g ms", q1*1e3, q2*1e3, q3*1e3)
		gauge.note(rep)
		peak, replay := e.peakHeap()
		score(replay, peak.out)
		rep.metrics["peak_heap_mb"] = float64(peak.heap) / 1e6
		return rep, nil
	}

	// The first third runs untraced as the baseline for the overhead.
	cut := max(1, len(e.plan)/3)
	baseOut := e.drive(e.plan[:cut])
	score(e.plan[:cut], baseOut)
	traced := e.plan[cut:]
	if len(traced) == 0 {
		traced = e.plan // the shortest schedules trace a second full pass
	}
	stats0, err := e.statz()
	if err != nil {
		return nil, err
	}
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	m := startMeter()
	out := e.drive(traced)
	c := m.end()
	table, err := prof.stop(rep)
	if err != nil {
		return nil, err
	}
	stats1, err := e.statz()
	if err != nil {
		return nil, err
	}
	score(traced, out)

	var reqs []requestTrace
	phase := map[string][]float64{}
	var lag []float64
	var events, tasks, iu, l1, splits, merges float64
	sims := 0
	for i, o := range out {
		p := traced[i]
		id := rec.add("request", p.trace, 0, o.due, o.done)
		rec.add("gen.wait", p.trace, id, o.due, o.sent)
		rec.add("http", p.trace, id, o.sent, o.done)
		reqs = append(reqs, requestTrace{Trace: p.trace, Kind: kindNames[p.kind], DueNS: int64(o.due.Sub(rec.epoch)),
			SentNS: int64(o.sent.Sub(rec.epoch)), DoneNS: int64(o.done.Sub(rec.epoch)), OK: o.ok, PhasesUS: o.resp.PhasesUS})
		lag = append(lag, o.sent.Sub(o.due).Seconds())
		if !o.ok {
			continue
		}
		ph := o.resp.PhasesUS
		for name, us := range map[string]int64{"parse": ph.Parse, "queue": ph.Queue, "graph": ph.Graph,
			"schedule": ph.Schedule, "run": ph.Run, "encode": ph.Encode} {
			phase[name] = append(phase[name], float64(us)/1e3)
		}
		switch p.kind {
		case kindUpload:
			phase["upload_graph"] = append(phase["upload_graph"], float64(ph.Graph)/1e3)
			phase["count_run"] = append(phase["count_run"], float64(ph.Run)/1e3)
		case kindCount:
			phase["count_run"] = append(phase["count_run"], float64(ph.Run)/1e3)
		case kindSimulate:
			sims++
			events += float64(o.resp.Events)
			tasks += float64(o.resp.SimTasks)
			iu += o.resp.IUUtil
			l1 += o.resp.L1HitRate
			splits += float64(o.resp.Splits)
			merges += float64(o.resp.Merges)
		}
	}
	mt := rep.metrics
	mt["graph.build_s"] = median(rec.durations("datasets.Make"))
	mt["graph.hubindex_s"] = median(rec.durations("graph.HubIndex"))
	mt["graph.upload_build_ms"] = median(phase["upload_graph"])
	mt["pattern.build_ms"] = rec.medianMS("pattern.BuildWith")
	if sims > 0 {
		// Simulated statistics are means over the simulate answers.
		n := float64(sims)
		mt["sim.events"] = events / n
		mt["pe.tasks"] = tasks / n
		mt["pe.iu_util"] = iu / n
		mt["mem.l1_hit_rate"] = l1 / n
		mt["core.splits"] = splits / n
		mt["core.merges"] = merges / n
	}
	mt["mine.count_ms"] = median(phase["count_run"])
	for _, name := range []string{"parse", "queue", "graph", "schedule", "run", "encode"} {
		mt["serve."+name+"_ms"] = median(phase[name])
	}
	g0, g1 := stats0.Graphs, stats1.Graphs
	if look := (g1.Hits - g0.Hits) + (g1.Misses - g0.Misses); look > 0 {
		mt["serve.graph_cache_hit_ratio"] = float64(g1.Hits-g0.Hits) / float64(look)
	}
	mt["serve.evicted_bytes"] = float64(g1.EvictedBytes - g0.EvictedBytes)
	mt["serve.shed"] = float64(stats1.Admission.Shed - stats0.Admission.Shed)
	mt["gen.lag_ms"] = percentile(lag, tailPercentile(len(lag))) * 1e3
	mt["gc.cycles"] = float64(c.gcCycles) / float64(len(out))
	mt["error_ratio"] = rep.errorRatio()
	mt["trace.overhead_pct"] = overheadPct(simRunSecs(e.plan[:cut], baseOut), simRunSecs(traced, out))
	mt["host.ref_ms"] = median(ref.cpu) * 1e3
	return rep, finishTrace(cfg, "serve-mix", rec, table, rep, reqs)
}

// peakRequests is how many requests from the start of the schedule
// peakHeap replays: about five seconds of it.
const peakRequests = 45

type peakRun struct {
	heap uint64
	out  []outcome
}

// peakHeap replays the start of the schedule after the window with the
// collector running every 5% of heap growth, so the live heap it marks
// follows the peak closely. Over the window, at the default setting, the
// largest marked heap was 14.5 MB in most runs and 12 MB in a quarter of
// them, whose collections missed the peak. The replayed answers are
// checked like the others.
func (e *serveEnv) peakHeap() (peakRun, []planned) {
	plan := e.plan[:min(len(e.plan), peakRequests)]
	defer debug.SetGCPercent(debug.SetGCPercent(5))
	runtime.GC()
	m := startMeter()
	out := e.drive(plan)
	return peakRun{m.end().peakHeap, out}, plan
}

// simRunSecs is the server's run phase of each correct simulate answer:
// serve-mix's run_s samples.
func simRunSecs(plan []planned, out []outcome) []float64 {
	var secs []float64
	for i, o := range out {
		if o.ok && plan[i].kind == kindSimulate {
			secs = append(secs, float64(o.resp.PhasesUS.Run)/1e6)
		}
	}
	return secs
}

// statz reads the daemon's /statz document.
func (e *serveEnv) statz() (serve.Stats, error) {
	var st serve.Stats
	resp, err := e.client.Get(e.url + "/statz")
	if err != nil {
		return st, fmt.Errorf("statz: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("statz: %w", err)
	}
	return st, nil
}
