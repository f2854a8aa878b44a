package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"outofssa/internal/ir"
	"outofssa/internal/obs/metrics"
	"outofssa/internal/pipeline"
	"outofssa/internal/server"
	"outofssa/internal/ssa"
	"outofssa/internal/testprog"
	"outofssa/internal/workload"
)

// poolSize is serve-warm's set of distinct functions: well inside the
// server's default 1024-entry result and decode caches.
const poolSize = 512

// daemon is an in-process laocd: a server.Server with production
// settings behind a loopback http.Server.
type daemon struct {
	srv     *server.Server
	hs      *http.Server
	url     string
	reg     *metrics.Registry
	served  chan error
	newWall time.Duration // server.New: opening the store and warm-scanning it
}

// storeMaxBytes is the store's size cap (laocd -cache-max-bytes). At
// the 64 MiB default a 20-second cold run crosses the cap once or not
// at all depending on its throughput, and the one compaction moves
// peak RSS by a factor of three. At 32 MiB, about twice the live set,
// compaction recurs every ~1,500 cold requests, a steady part of every
// run.
const storeMaxBytes = 32 << 20

// startDaemon starts a server persisting to dir: checked+fallback
// Lphi,ABI+C (the server default), two workers, default queue,
// deadlines and cache sizes, a metrics registry, fsync never.
func startDaemon(dir string) (*daemon, error) {
	reg := metrics.New()
	t0 := time.Now()
	srv, err := server.New(server.Config{Workers: batchWorkers, Metrics: reg,
		CacheDir: dir, StoreFsync: "never", StoreMaxBytes: storeMaxBytes})
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, reg: reg, newWall: time.Since(t0), served: make(chan error, 1)}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, srv.Drain(context.Background()))
	}
	d.url = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: srv.Handler()}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the listener, waits for the serving goroutine, then drains
// the server, which flushes the store.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if e := <-d.served; !errors.Is(e, http.ErrServerClosed) {
		err = errors.Join(err, e)
	}
	return errors.Join(err, d.srv.Drain(ctx))
}

// request is one /compile body: function fn of the workload's stream,
// as a laoc-ir-v1 JSON envelope or a raw laoc-ir-b1 body.
type request struct {
	fn   int64
	name string
	b1   bool
	doc  []byte // the IR document the server decodes
	body []byte
}

func newRequest(fn int64, f *ir.Func, b1 bool) (*request, error) {
	req := &request{fn: fn, name: f.Name, b1: b1}
	var err error
	if b1 {
		req.doc, err = ir.MarshalBinary(f)
		req.body = req.doc
	} else {
		req.doc, err = ir.MarshalV1(f)
		req.body = append(append([]byte(`{"ir":`), req.doc...), '}')
	}
	return req, err
}

// streamFunc is function fn of seed's request stream: a SPECint-option
// random function with a name unique in the stream, so every body is
// distinct content.
func streamFunc(seed, fn int64) *ir.Func {
	f := testprog.Rand(seed*1_000_003+fn, specintOptions)
	f.Name = fmt.Sprintf("req%d", fn)
	return f
}

// streamRequest builds function fn's request; bodies alternate between
// the two wire forms.
func streamRequest(seed, fn int64) (*request, error) {
	return newRequest(fn, streamFunc(seed, fn), fn%2 == 1)
}

// reply is the part of the /compile response the benchmark checks.
type reply struct {
	Name     string `json:"name"`
	Output   string `json:"output"`
	Moves    int    `json:"moves"`
	FellBack bool   `json:"fell_back"`
	Degraded bool   `json:"degraded"`
	Cached   bool   `json:"cached"`
}

type client struct {
	hc  *http.Client
	url string
}

func newClient(url string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: batchWorkers, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, url: url}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// compile posts req and decodes the reply; a transport error or a
// non-2xx status is an error.
func (c *client) compile(req *request) (reply, error) {
	ct := "application/json"
	if req.b1 {
		ct = "application/octet-stream"
	}
	resp, err := c.hc.Post(c.url+"/compile", ct, bytes.NewReader(req.body))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, fmt.Errorf("%s: reading reply: %w", req.name, err)
	}
	if resp.StatusCode/100 != 2 {
		if len(body) > 200 {
			body = body[:200]
		}
		return reply{}, fmt.Errorf("%s: status %d: %s", req.name, resp.StatusCode, bytes.TrimSpace(body))
	}
	var rep reply
	if err := json.Unmarshal(body, &rep); err != nil {
		return reply{}, fmt.Errorf("%s: decoding reply: %w", req.name, err)
	}
	return rep, nil
}

func (c *client) healthy() error {
	resp, err := c.hc.Get(c.url + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return nil
}

// load describes one closed-loop phase: two clients, each posting its
// next request only after the previous reply.
type load struct {
	// next returns the request with send id id (a counter shared by the
	// clients). Building it is the client's think time, off the clock.
	next func(id int64) (*request, error)
	// check validates a 2xx reply.
	check func(req *request, rep reply) error
	// keep selects replies for the after-phase sample check.
	keep func(id int64) bool
	// With clk set, every request records a span; every codecEvery-th
	// body is kept for codec timing.
	clk        *clock
	codecEvery int64
}

type kept struct {
	id  int64
	req *request
	rep reply
}

// loadStats is what a phase measured.
type loadStats struct {
	lat      []float64 // ms, successful replies
	done     []float64 // s since the phase began, when each reply in lat completed
	ok       int
	failures []string // one per failed request
	elapsed  time.Duration
	spans    []span
	kept     []kept
	codec    []kept
}

func (a *loadStats) merge(b *loadStats) {
	a.lat = append(a.lat, b.lat...)
	a.done = append(a.done, b.done...)
	a.ok += b.ok
	a.failures = append(a.failures, b.failures...)
	a.spans = append(a.spans, b.spans...)
	a.kept = append(a.kept, b.kept...)
	a.codec = append(a.codec, b.codec...)
}

// drive runs l for d from send id first and returns the merged stats
// and the next unused id.
func drive(c *client, d time.Duration, first int64, l load) (*loadStats, int64, error) {
	var ids atomic.Int64
	ids.Store(first)
	per := make([]loadStats, batchWorkers)
	errs := make([]error, batchWorkers)
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(batchWorkers)
	for w := range per {
		go func(st *loadStats, errp *error) {
			defer wg.Done()
			for time.Since(start) < d {
				id := ids.Add(1) - 1
				req, err := l.next(id)
				if err != nil {
					*errp = err
					return
				}
				var s span
				if l.clk != nil {
					s = span{ID: id, Name: spanRequest, Start: l.clk.now()}
				}
				t0 := time.Now()
				rep, err := c.compile(req)
				lat := ms(time.Since(t0))
				if l.clk != nil {
					s.End = l.clk.now()
					st.spans = append(st.spans, s)
					// Pairs of ids, so both wire forms are sampled.
					if l.codecEvery > 0 && (id/2)%l.codecEvery == 0 {
						st.codec = append(st.codec, kept{id: id, req: req})
					}
				}
				if err == nil {
					err = l.check(req, rep)
				}
				if err != nil {
					st.failures = append(st.failures, err.Error())
					continue
				}
				st.ok++
				st.lat = append(st.lat, lat)
				st.done = append(st.done, time.Since(start).Seconds())
				if l.keep != nil && l.keep(id) {
					st.kept = append(st.kept, kept{id: id, req: req, rep: rep})
				}
			}
		}(&per[w], &errs[w])
	}
	wg.Wait()
	out := &loadStats{elapsed: time.Since(start)}
	for i := range per {
		out.merge(&per[i])
	}
	return out, ids.Load(), errors.Join(errs...)
}

// windowCount is how many equal windows a timed phase is cut into.
// The shared host has slow spells of a few seconds; the service
// metrics are the median over the windows of each window's value, so a
// spell moves only the windows it covers.
const windowCount = 5

// windowStats are the per-window throughput and latency percentiles.
type windowStats struct {
	rates, p50, p99 []float64
	minSamples      int // the fewest replies behind any window's percentiles
}

// windows cuts the phase [0, d) into windowCount windows by reply
// completion time; replies completing after d are left out.
func (st *loadStats) windows(d time.Duration) windowStats {
	width := d.Seconds() / windowCount
	lats := make([][]float64, windowCount)
	for i, t := range st.done {
		if w := int(t / width); w < windowCount {
			lats[w] = append(lats[w], st.lat[i])
		}
	}
	var ws windowStats
	for i, l := range lats {
		ws.rates = append(ws.rates, float64(len(l))/width)
		ws.p50 = append(ws.p50, median(l))
		ws.p99 = append(ws.p99, percentile(l, 0.99))
		if i == 0 || len(l) < ws.minSamples {
			ws.minSamples = len(l)
		}
	}
	return ws
}

// account adds a phase's operations and failures to r.
func account(r *result, st *loadStats) {
	r.attempted += st.ok + len(st.failures)
	for _, f := range st.failures {
		r.fail("%s", f)
	}
}

// serverConfig is the pipeline the server compiles with: its preset
// under checked mode with fallback.
func serverConfig() (pipeline.Config, error) {
	conf, err := pipeline.Preset(pipeline.ExpLphiABIC)
	conf.Verify, conf.Fallback = true, true
	return conf, err
}

// checkServed compiles f locally under the server's pipeline and
// requires the served output to equal it byte for byte; the local
// output must also behave like f under ir.Exec. It returns the number
// of argument vectors that gave no verdict.
func checkServed(f *ir.Func, served string) (int, error) {
	conf, err := serverConfig()
	if err != nil {
		return 0, err
	}
	ref, err := referenceExec(f)
	if err != nil {
		return 0, err
	}
	out := f.Clone()
	if _, err := pipeline.Run(out, conf, pipeline.WithExperiment(pipeline.ExpLphiABIC)); err != nil {
		return 0, fmt.Errorf("%s: local compile: %w", f.Name, err)
	}
	if got := out.String(); got != served {
		return 0, fmt.Errorf("%s: served output differs from the local compile", f.Name)
	}
	return execCheck(ref, out)
}

// sampled is the seeded sample of send ids whose replies are checked
// against a local compile after the timed phase.
func sampled(seed, id int64) bool {
	h := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(id)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	return h%50 == 0
}

// serveState is one set-up server and what set-up learned.
type serveState struct {
	d           *daemon
	dir         string
	paper       []*request // the paper's SPECint population, posted after the timed phase
	pool        []*request // serve-warm: the primed pool
	expected    []string   // serve-warm: the primed reply per pool member
	warmRecords int64
}

func (s *serveState) teardown() error {
	err := s.d.stop()
	return errors.Join(err, os.RemoveAll(s.dir))
}

type serveBench struct {
	warm bool
	seed int64
}

// setup starts a fresh server on an empty store. For serve-warm it
// also primes the pool, drains, and restarts on the same store, so the
// timed phase starts warm.
func (b *serveBench) setup(r *result, outDir string) (*serveState, error) {
	dir, err := os.MkdirTemp(outDir, "store-")
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(dir)
	if err != nil {
		return nil, err
	}
	st := &serveState{d: d, dir: dir}
	for i, f := range workload.SPECint().Funcs {
		req, err := newRequest(int64(i), f, i%2 == 1)
		if err != nil {
			return nil, err
		}
		st.paper = append(st.paper, req)
	}
	if !b.warm {
		c := newClient(d.url)
		defer c.close()
		return st, c.healthy()
	}
	for fn := int64(0); fn < poolSize; fn++ {
		req, err := streamRequest(b.seed, fn)
		if err != nil {
			return nil, err
		}
		st.pool = append(st.pool, req)
	}
	st.expected = make([]string, poolSize)
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	c := newClient(d.url)
	wg.Add(batchWorkers)
	for w := 0; w < batchWorkers; w++ {
		go func() {
			defer wg.Done()
			for fn := next.Add(1) - 1; fn < poolSize; fn = next.Add(1) - 1 {
				req := st.pool[fn]
				rep, err := c.compile(req)
				if err == nil && rep.Name != req.name {
					err = fmt.Errorf("%s: reply names %q", req.name, rep.Name)
				}
				mu.Lock()
				r.attempted++
				if err != nil {
					r.fail("priming: %v", err)
				}
				st.expected[fn] = rep.Output
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	c.close()
	if err := d.stop(); err != nil {
		return nil, err
	}
	if st.d, err = startDaemon(dir); err != nil {
		return nil, err
	}
	st.warmRecords = counterSum(st.d.reg.Snapshot(), server.MetricStoreWarm, nil)
	c = newClient(st.d.url)
	defer c.close()
	return st, c.healthy()
}

// phase returns the timed load: distinct stream functions on
// serve-cold, pool members on serve-warm.
func (b *serveBench) phase(st *serveState, clk *clock) load {
	l := load{clk: clk}
	if !b.warm {
		l.next = func(id int64) (*request, error) { return streamRequest(b.seed, id) }
		l.check = func(req *request, rep reply) error {
			switch {
			case rep.Name != req.name:
				return fmt.Errorf("%s: reply names %q", req.name, rep.Name)
			case rep.Output == "":
				return fmt.Errorf("%s: empty output", req.name)
			case rep.Cached || rep.Degraded:
				return fmt.Errorf("%s: cached=%v degraded=%v on a distinct cold request", req.name, rep.Cached, rep.Degraded)
			}
			return nil
		}
		l.keep = func(id int64) bool { return sampled(b.seed, id) }
		l.codecEvery = 4
		return l
	}
	l.next = func(id int64) (*request, error) {
		// A seeded member whose wire form follows the send id's parity, so
		// the two forms still alternate.
		h := uint64(b.seed)*0x9e3779b97f4a7c15 + uint64(id)*0xbf58476d1ce4e5b9
		h ^= h >> 29
		return st.pool[2*int(h%(poolSize/2))+int(id%2)], nil
	}
	l.check = func(req *request, rep reply) error {
		if rep.Output != st.expected[req.fn] {
			return fmt.Errorf("%s: warm reply differs from the primed reply", req.name)
		}
		return nil
	}
	l.codecEvery = 16
	return l
}

// checkPaperMoves posts the paper's SPECint population through the
// server after the timed phase and returns the summed served move
// count, which must equal EXPERIMENTS.md's Table 3 SPECint cell for
// Lphi,ABI+C. The inputs do not depend on the seed.
func checkPaperMoves(r *result, c *client, paper []*request, experiments string) (int64, error) {
	want, err := measuredTables(experiments)
	if err != nil {
		return 0, err
	}
	var moves int64
	for _, req := range paper {
		r.attempted++
		rep, err := c.compile(req)
		if err != nil {
			r.fail("paper SPECint: %v", err)
			continue
		}
		moves += int64(rep.Moves)
	}
	r.attempted++
	if cell := want[3]["SPECint"]; len(cell) == 0 || cell[0] != moves {
		r.fail("served Lphi,ABI+C moves on the paper SPECint population: %d, EXPERIMENTS.md Table 3 has %v", moves, cell)
	}
	return moves, nil
}

// checkSamples compares the kept replies (on serve-warm, a seeded set
// of pool members) with local compiles.
func (b *serveBench) checkSamples(r *result, st *serveState, ks []kept) {
	if b.warm {
		ks = nil
		for fn := int64(0); fn < poolSize; fn++ {
			if sampled(b.seed, fn) || fn == 0 {
				ks = append(ks, kept{req: st.pool[fn], rep: reply{Output: st.expected[fn]}})
			}
		}
	}
	for _, k := range ks {
		r.attempted++
		nv, err := checkServed(streamFunc(b.seed, k.req.fn), k.rep.Output)
		r.noVerdict += nv
		if err != nil {
			r.fail("sample: %v", err)
		}
	}
}

// runServe is serve-cold or serve-warm end to end.
func runServe(warm bool, seed int64, seconds time.Duration, trace bool, outDir, experiments string) (_ *result, err error) {
	r := newResult()
	b := &serveBench{warm: warm, seed: seed}
	name := "serve-cold"
	setups := 5
	if warm {
		name, setups = "serve-warm", 3
	}
	var st *serveState
	var times []float64
	for i := 0; i < setups; i++ {
		if st != nil {
			if err := st.teardown(); err != nil {
				return nil, err
			}
		}
		settle()
		t0 := time.Now()
		if st, err = b.setup(r, outDir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	r.setN("setup_s", median(times), len(times))
	defer func() { err = errors.Join(err, st.teardown()) }()

	c := newClient(st.d.url)
	defer c.close()
	settle()
	var spans []span
	var timed *loadStats
	var untraced *loadStats
	var before, after *metrics.Snapshot
	var g0, g1 globalStats
	if !trace {
		if timed, _, err = drive(c, seconds, 0, b.phase(st, nil)); err != nil {
			return nil, err
		}
	} else {
		// Send ids continue across the halves, so on serve-cold every
		// request of the run stays distinct.
		var next int64
		if untraced, next, err = drive(c, seconds/2, 0, b.phase(st, nil)); err != nil {
			return nil, err
		}
		account(r, untraced)
		clk := &clock{time.Now()}
		before, g0 = st.d.reg.Snapshot(), readGlobal()
		if timed, _, err = drive(c, seconds-seconds/2, next, b.phase(st, clk)); err != nil {
			return nil, err
		}
		after, g1 = st.d.reg.Snapshot(), readGlobal()
		spans = timed.spans
	}
	account(r, timed)
	rss := peakRSSMB()

	moves, err := checkPaperMoves(r, c, st.paper, experiments)
	if err != nil {
		return nil, err
	}
	b.checkSamples(r, st, append(timed.kept, keptOf(untraced)...))
	r.set("moves", float64(moves))

	if !trace {
		w := timed.windows(seconds)
		r.setN("req_per_s", median(w.rates), timed.ok)
		r.setN("funcs_per_s", median(w.rates), timed.ok)
		r.setN("latency_p50_ms", median(w.p50), w.minSamples)
		r.setN("latency_p99_ms", median(w.p99), w.minSamples)
		r.set("peak_rss_mb", rss)
		return r, nil
	}

	ops := float64(timed.ok)
	codecSpans, err := timeCodec(r, timed.codec)
	if err != nil {
		return nil, err
	}
	spans = append(spans, codecSpans...)
	if err := checkSpans(spans, codecPrefix); err != nil {
		r.attempted++
		r.fail("span tree: %v", err)
	}
	b.serverLayers(r, st, before, after, timed, ops)
	g1.report(r, g0, ops)
	if err := b.ssaLayer(r, timed, after, before, ops); err != nil {
		return nil, err
	}
	bypass(r, "ir.snapshot_ms", "batch.idle_share")
	r.set("trace.overhead_share", overhead(float64(untraced.ok)/untraced.elapsed.Seconds(), ops/timed.elapsed.Seconds()))
	return r, writeSpans(spanPath(outDir, name, seed), spans)
}

func keptOf(st *loadStats) []kept {
	if st == nil {
		return nil
	}
	return st.kept
}

// timeCodec decodes the kept bodies with ir.Unmarshal, one codec span
// each under its request's id, and reports decode throughput per wire
// form.
func timeCodec(r *result, ks []kept) ([]span, error) {
	clk := clock{time.Now()}
	var spans []span
	var bytesB1, bytesV1 float64
	var nsB1, nsV1 float64
	var nB1, nV1 int
	for _, k := range ks {
		t0 := clk.now()
		if _, err := ir.Unmarshal(k.req.doc); err != nil {
			return nil, fmt.Errorf("%s: %w", k.req.name, err)
		}
		t1 := clk.now()
		form := "v1"
		if k.req.b1 {
			form = "b1"
			nB1++
			bytesB1 += float64(len(k.req.doc))
			nsB1 += float64(t1 - t0)
		} else {
			nV1++
			bytesV1 += float64(len(k.req.doc))
			nsV1 += float64(t1 - t0)
		}
		spans = append(spans, span{ID: k.id, Name: codecPrefix + form + ".decode", Parent: spanRequest, Start: t0, End: t1})
	}
	r.setN("codec.v1.decode_mb_s", ratio(bytesV1/(1<<20), nsV1/1e9), nV1)
	r.setN("codec.b1.decode_mb_s", ratio(bytesB1/(1<<20), nsB1/1e9), nB1)
	return spans, nil
}

// serverLayers reports the server, store and pass layers from the
// server registry's change over the traced phase.
func (b *serveBench) serverLayers(r *result, st *serveState, before, after *metrics.Snapshot, timed *loadStats, ops float64) {
	delta := func(name string) float64 {
		return float64(counterSum(after, name, nil) - counterSum(before, name, nil))
	}
	hist := func(name string, want map[string]string) (float64, float64) {
		s1, c1 := histSum(after, name, want)
		s0, c0 := histSum(before, name, want)
		return float64(s1 - s0), float64(c1 - c0)
	}
	handlerNS, handled := hist(server.MetricRequestWallNS, nil)
	runNS, _ := hist(pipeline.MetricRunWallNS, nil)
	hits, misses := delta(server.MetricCacheHits), delta(server.MetricCacheMisses)
	decHits, decMisses := delta(server.MetricDecodeHits), delta(server.MetricDecodeMisses)
	handlerMS := ratio(handlerNS/1e6, handled)

	passNS := map[string]int64{}
	var passSum float64
	for _, p := range passNames {
		ns, _ := hist(pipeline.MetricPassWallNS, map[string]string{"pass": p})
		passNS[p] = int64(ns)
		passSum += ns
	}
	setPassMetrics(r, passNS, ops)
	r.set("pipeline.unattributed_share", ratio(runNS-passSum, runNS))
	r.set("server.handler_ms", handlerMS)
	outside := 0.0
	if misses > 0 {
		outside = handlerMS - runNS/1e6/misses
	}
	r.set("server.outside_pipeline_ms", outside)
	var latSum float64
	for _, l := range timed.lat {
		latSum += l
	}
	r.set("server.transport_ms", ratio(latSum, float64(len(timed.lat)))-handlerMS)
	r.set("server.result_hit_ratio", ratio(hits, hits+misses))
	r.set("server.decode_hit_ratio", ratio(decHits, decHits+decMisses))
	r.set("server.fallbacks", delta(server.MetricFallbacks))
	r.set("server.shed", delta(server.MetricShed))
	r.set("store.appends", ratio(delta(server.MetricStoreAppends), ops))
	r.set("store.append_mb", ratio(delta(server.MetricStoreAppendBytes)/(1<<20), ops))
	r.set("store.dropped", delta(server.MetricStoreDropped))
	r.set("store.compactions", delta(server.MetricStoreCompactions))
	r.set("store.warm_records", float64(st.warmRecords))
	r.set("store.warm_scan_s", st.d.newWall.Seconds())
	setCounterMetrics(r, after, before, ops)
}

// ssaLayer estimates the SSA construction time per reply: ssa.Build
// timed on the sampled request functions (median of three each),
// scaled by the share of replies that ran the pipeline.
func (b *serveBench) ssaLayer(r *result, timed *loadStats, after, before *metrics.Snapshot, ops float64) error {
	misses := float64(counterSum(after, server.MetricCacheMisses, nil) - counterSum(before, server.MetricCacheMisses, nil))
	if misses == 0 || len(timed.kept) == 0 {
		bypass(r, "ssa.build_ms")
		return nil
	}
	var total float64
	for _, k := range timed.kept {
		var ts []float64
		for i := 0; i < 3; i++ {
			f := streamFunc(b.seed, k.req.fn)
			t0 := time.Now()
			if _, err := ssa.Build(f); err != nil {
				return err
			}
			ts = append(ts, ms(time.Since(t0)))
		}
		total += median(ts)
	}
	r.set("ssa.build_ms", total/float64(len(timed.kept))*misses/ops)
	return nil
}
