package pipeline

import (
	"errors"
	"reflect"
	"testing"

	"outofssa/internal/faultinject"
	"outofssa/internal/ir"
	"outofssa/internal/obs"
	"outofssa/internal/obs/metrics"
	"outofssa/internal/testprog"
)

// TestNilMetricsAllocatesNothing pins the disabled-metrics contract
// alongside TestNilTracerAllocatesNothing: WithMetrics(nil) — the
// shape every conditional caller produces — adds no sink, so the
// tracer stays nil and the runner keeps its allocation-free loop.
func TestNilMetricsAllocatesNothing(t *testing.T) {
	f := ir.NewFunc("noalloc")
	f.NewBlock("entry")
	ps := []pass{
		{name: "a", run: func() error { return nil }},
		{name: "b", run: func() error { return nil }},
	}
	var rc runConfig
	WithMetrics(nil)(&rc)
	if rc.tracer != nil || rc.metrics != nil {
		t.Fatalf("WithMetrics(nil) attached tracer %v, registry %v", rc.tracer, rc.metrics)
	}
	n := testing.AllocsPerRun(200, func() {
		if err := runPasses(f, "", ps, rc.tracer, runOpts{}); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("nil-metrics runPasses allocates %v per run, want 0", n)
	}
}

// TestMetricsMirrorMatchesTraceCounters checks that the registry is an
// aggregation of the event stream a tracer sees: after real runs with
// both attached, the pass-counter family equals the Recorder's counter
// totals cell for cell, there is one pass wall observation per traced
// pass event, and the run-level metrics line up with the runs.
func TestMetricsMirrorMatchesTraceCounters(t *testing.T) {
	reg := metrics.New()
	rec := &obs.Recorder{}
	conf, err := Preset(ExpLphiABIC)
	if err != nil {
		t.Fatal(err)
	}
	withMetrics := WithMetrics(reg)
	funcs := []*ir.Func{testprog.Diamond(), testprog.SwapLoop(), testprog.NestedLoops()}
	for _, f := range funcs {
		if _, err := Run(f, conf, WithExperiment(ExpLphiABIC), WithTracer(rec), withMetrics); err != nil {
			t.Fatal(err)
		}
	}

	traced := map[string]int64{}
	passEvents := 0
	for _, run := range rec.Runs {
		for _, ev := range run.Events {
			passEvents++
			for k, v := range ev.Counters {
				traced[k] += v
			}
		}
	}
	s := reg.Snapshot()
	registered := map[string]int64{}
	runs := int64(0)
	for _, c := range s.Counters {
		switch c.Name {
		case MetricPassCounters:
			var pass, counter string
			for _, l := range c.Labels {
				switch l.Key {
				case "pass":
					pass = l.Value
				case "counter":
					counter = l.Value
				}
			}
			registered[pass+"."+counter] += c.Value
		case MetricRuns:
			runs += c.Value
		}
	}
	if len(traced) == 0 {
		t.Fatal("runs traced no pass counters")
	}
	if !reflect.DeepEqual(registered, traced) {
		t.Fatalf("%s differs from the traced totals:\nregistry %v\ntrace    %v", MetricPassCounters, registered, traced)
	}
	if runs != int64(len(funcs)) {
		t.Fatalf("%s = %d, want %d", MetricRuns, runs, len(funcs))
	}

	var wallCount, runWallCount int64
	var maxLive *metrics.HistogramSnap
	for i := range s.Histograms {
		switch h := &s.Histograms[i]; h.Name {
		case MetricPassWallNS:
			wallCount += h.Count
		case MetricRunWallNS:
			runWallCount += h.Count
		case MetricMaxLive:
			maxLive = h
		}
	}
	if wallCount != int64(passEvents) {
		t.Fatalf("pass wall observations %d != traced pass events %d", wallCount, passEvents)
	}
	if runWallCount != int64(len(rec.Runs)) {
		t.Fatalf("run wall observations %d != traced runs %d", runWallCount, len(rec.Runs))
	}
	if maxLive == nil || maxLive.Count != int64(len(funcs)) || !maxLive.Deterministic {
		t.Fatalf("MAXLIVE histogram wrong: %+v", maxLive)
	}
	if maxLive.Min < 1 {
		t.Fatalf("MAXLIVE min = %d, want >= 1 on non-trivial programs", maxLive.Min)
	}
}

// TestMetricsErrorPanicFallbackCounters drives the failure counters:
// an erroring pass, a panicking pass, and a rescued fallback run.
func TestMetricsErrorPanicFallbackCounters(t *testing.T) {
	reg := metrics.New()
	f := ir.NewFunc("failing")
	f.NewBlock("entry")
	boom := errors.New("synthetic")
	ps := []pass{
		{name: "ok", run: func() error { return nil }},
		{name: "fails", run: func() error { return boom }},
	}
	sink := newMetricsSink(reg)
	if err := runPasses(f, "exp", ps, sink, runOpts{}); !errors.Is(err, boom) {
		t.Fatalf("got %v", err)
	}
	ps[1].run = func() error { panic("kaboom") }
	if err := runPasses(f, "exp", ps, sink, runOpts{}); err == nil {
		t.Fatal("panic not surfaced")
	}
	if got := reg.Counter(MetricPassErrors, metrics.L("pass", "fails")).Value(); got != 2 {
		t.Fatalf("%s{pass=fails} = %d, want 2", MetricPassErrors, got)
	}
	if got := reg.Counter(MetricPanics).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricPanics, got)
	}

	// A verify-failing run under Fallback: the fallback counter bumps
	// and the fallback passes are recorded like any others.
	conf, err := Preset(ExpLphiABIC)
	if err != nil {
		t.Fatal(err)
	}
	conf.Verify = true
	conf.Fallback = true
	sab := false
	conf.FaultHook = func(pass string, g *ir.Func) {
		if pass == "pinning-sp" && !sab {
			sab = faultinject.Inject(g, faultinject.DoubleDef)
		}
	}
	g := testprog.SwapLoop()
	res, err := Run(g, conf, WithExperiment("fault"), WithMetrics(reg))
	if err != nil || !sab {
		t.Fatalf("fallback run: err=%v injected=%v", err, sab)
	}
	if !res.FellBack {
		t.Fatal("run did not fall back")
	}
	if got := reg.Counter(MetricFallbacks).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricFallbacks, got)
	}
	fb := reg.Snapshot()
	seen := false
	for i := range fb.Histograms {
		if fb.Histograms[i].Name == MetricPassWallNS && len(fb.Histograms[i].Labels) == 1 &&
			fb.Histograms[i].Labels[0].Value == "fallback-out-naive" {
			seen = fb.Histograms[i].Count == 1
		}
	}
	if !seen {
		t.Fatal("fallback passes not recorded in the pass wall histogram")
	}
}

// TestBatchMetrics checks the RunBatch instrumentation: jobs counted,
// queue drained, nothing left in flight, per-job wall observed once per
// job — at both parallelism settings — and counter totals identical
// between serial and parallel runs (atomic adds commute).
func TestBatchMetrics(t *testing.T) {
	conf, err := Preset(ExpLphiABIC)
	if err != nil {
		t.Fatal(err)
	}
	jobs := func() []Job {
		var js []Job
		for _, f := range []*ir.Func{testprog.Diamond(), testprog.SwapLoop(), testprog.NestedLoops(), testprog.Loop()} {
			f := f
			js = append(js, Job{Build: func() *ir.Func { return f.Clone() }, Config: conf, Experiment: "batch"})
		}
		return js
	}

	counterTotals := func(s *metrics.Snapshot) map[string]int64 {
		m := map[string]int64{}
		for _, c := range s.Counters {
			key := c.Name
			for _, l := range c.Labels {
				key += "|" + l.Key + "=" + l.Value
			}
			m[key] = c.Value
		}
		return m
	}

	var snaps []*metrics.Snapshot
	for _, par := range []int{1, 4} {
		reg := metrics.New()
		for _, r := range RunBatch(jobs(), WithParallelism(par), WithBatchMetrics(reg)) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
		if got := reg.Counter(MetricBatchJobs).Value(); got != 4 {
			t.Fatalf("parallel=%d: %s = %d, want 4", par, MetricBatchJobs, got)
		}
		if got := reg.Gauge(MetricBatchQueueDepth).Value(); got != 0 {
			t.Fatalf("parallel=%d: queue depth = %d after batch, want 0", par, got)
		}
		if got := reg.Gauge(MetricBatchInflight).Value(); got != 0 {
			t.Fatalf("parallel=%d: %d jobs still in flight", par, got)
		}
		s := reg.Snapshot()
		for i := range s.Histograms {
			if s.Histograms[i].Name == MetricBatchJobWallNS && s.Histograms[i].Count != 4 {
				t.Fatalf("parallel=%d: job wall count = %d, want 4", par, s.Histograms[i].Count)
			}
		}
		snaps = append(snaps, s)
	}
	serial, par := counterTotals(snaps[0]), counterTotals(snaps[1])
	if len(serial) != len(par) {
		t.Fatalf("counter cell sets differ: %d vs %d", len(serial), len(par))
	}
	for k, v := range serial {
		if par[k] != v {
			t.Fatalf("counter %s: serial %d != parallel %d", k, v, par[k])
		}
	}
}
