// Command ssabench regenerates the evaluation tables of Rastello, de
// Ferrière and Guillon, "Optimizing Translation Out of SSA Using
// Renaming Constraints" (CGO 2004) over this repository's workload
// suites.
//
// Usage:
//
//	ssabench              # all tables
//	ssabench -table 3     # one table
//	ssabench -parallel 8  # run pipeline jobs on 8 workers (same output)
//	ssabench -verify      # all tables, re-verifying IR after every pass
//	ssabench -list        # list suites and sizes
//
// ssabench doubles as the profiling harness for the pipeline. Every
// pipeline run emits one stream of per-pass events; the flags below
// attach sinks to it (the JSONL writer, the metrics registry) or read
// the registry's aggregation of it:
//
//	ssabench -trace-json trace.jsonl     # per-pass events for every run
//	ssabench -cpuprofile cpu.pprof       # CPU profile of the regeneration
//	ssabench -memprofile mem.pprof       # heap profile at exit
//	ssabench -trace-counters             # summed per-pass counters and
//	                                     # analysis cache counters at exit
//	ssabench -metrics-out metrics.json   # registry snapshot (counters,
//	                                     # histograms, host stamp) at exit —
//	                                     # the format cmd/perfgate compares
//	ssabench -metrics-addr localhost:0   # serve /metrics (Prometheus text)
//	                                     # and /debug/pprof while running
//
// and as the harness for the resource-interference engines:
//
//	ssabench -interference-engine=pairwise   # force the O(k²) oracle engine
//	ssabench -bench-interference             # time both engines on a table
//	                                         # workload and check the outputs
//	                                         # are byte-identical
//
// The JSONL event schema is documented in DESIGN.md; `go tool pprof`
// reads the profiles. Throughput and per-layer timings of the batch
// pipeline and of laocd come from perfbench (bash perfbench/run.sh),
// not from ssabench.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"outofssa/internal/interference"
	"outofssa/internal/obs"
	"outofssa/internal/obs/metrics"
	"outofssa/internal/pipeline"
	"outofssa/internal/ssa"
	"outofssa/internal/stats"
	"outofssa/internal/workload"
)

func main() {
	table := flag.Int("table", 0, "table to regenerate (1-5); 0 means all")
	list := flag.Bool("list", false, "list the workload suites and exit")
	verifyMode := flag.Bool("verify", false, "checked mode: re-verify IR invariants after every pass of every run")
	parallel := flag.Int("parallel", 1, "worker pool size for pipeline runs; 0 means GOMAXPROCS (output is identical at any setting)")
	traceJSON := flag.String("trace-json", "", "write per-pass trace events as JSONL to `file`")
	traceCounters := flag.Bool("trace-counters", false, "print per-pass counters (interference query volume, memo hits, merges) summed over every run, and the analysis cache counters, to stderr at exit")
	engineName := flag.String("interference-engine", "", "resource-interference engine: dominance (default) or pairwise (the O(k²) oracle)")
	benchInterference := flag.Bool("bench-interference", false, "time the selected table workload (default: table 2) under both interference engines, check byte-identical output, and report the speedup")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to `file`")
	memprofile := flag.String("memprofile", "", "write a heap profile to `file` at exit")
	metricsOut := flag.String("metrics-out", "", "write a JSON metrics snapshot (counters, histograms, host stamp) to `file` at exit; cmd/perfgate compares these")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics (Prometheus text), /metrics.json and /debug/pprof on `host:port` while the run is in flight")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "ssabench:", err)
		os.Exit(1)
	}
	stats.Checked = *verifyMode
	stats.Parallel = *parallel

	// An interrupt cancels the table batches: queued jobs are skipped,
	// in-flight ones stop at the next pass boundary, and the driver
	// exits with the cancellation error instead of finishing all tables
	// on a worker pool nobody is waiting for.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	stats.Context = ctx

	switch *engineName {
	case "":
	case "dominance":
		interference.DefaultEngine = interference.EngineDominance
	case "pairwise":
		interference.DefaultEngine = interference.EnginePairwise
	default:
		fail(fmt.Errorf("unknown -interference-engine %q (have: dominance, pairwise)", *engineName))
	}

	if *list {
		for _, s := range workload.All() {
			// φ counts require SSA form; the suites are built fresh for
			// this listing, so converting them in place is fine.
			instrs := s.NumInstrs()
			phis := 0
			for _, f := range s.Funcs {
				ssa.MustBuild(f)
				phis += f.CountPhis()
			}
			fmt.Printf("%-12s %4d functions, %6d instructions, %5d phis\n",
				s.Name, len(s.Funcs), instrs, phis)
		}
		return
	}

	if *cpuprofile != "" {
		w, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		defer w.Close()
		if err := pprof.StartCPUProfile(w); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			w, err := os.Create(*memprofile)
			if err != nil {
				fail(err)
			}
			defer w.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(w); err != nil {
				fail(err)
			}
		}()
	}

	var tracer obs.Tracer
	if *traceJSON != "" {
		w, err := os.Create(*traceJSON)
		if err != nil {
			fail(err)
		}
		defer w.Close()
		tracer = obs.NewJSONL(w)
	}

	if *traceCounters || *metricsOut != "" || *metricsAddr != "" {
		// Route every table batch through the process-wide registry (the
		// analysis-cache counters land there unconditionally).
		stats.Metrics = metrics.Default
		if *traceCounters {
			defer func() { dumpCounters(os.Stderr, metrics.Default.Snapshot()) }()
		}
		if *metricsAddr != "" {
			addr, stop, err := metrics.Serve(*metricsAddr, metrics.Default)
			if err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "ssabench: serving metrics on http://%s/metrics\n", addr)
			defer stop()
		}
		if *metricsOut != "" {
			out := *metricsOut
			defer func() {
				w, err := os.Create(out)
				if err != nil {
					fail(err)
				}
				defer w.Close()
				if err := metrics.WriteJSON(w, metrics.Default.Snapshot(), obs.HostInfo()); err != nil {
					fail(err)
				}
			}()
		}
	}

	if *benchInterference {
		if err := runBenchInterference(*table); err != nil {
			fail(err)
		}
		return
	}

	run := func(fn func(obs.Tracer) (*stats.Table, error)) {
		t, err := fn(tracer)
		if err != nil {
			fail(err)
		}
		fmt.Println(t)
	}

	switch *table {
	case 0:
		fmt.Println(stats.Table1())
		ts, err := stats.AllTablesTraced(tracer)
		if err != nil {
			fail(err)
		}
		for _, t := range ts {
			fmt.Println(t)
		}
	case 1:
		fmt.Println(stats.Table1())
	case 2:
		run(stats.Table2Traced)
	case 3:
		run(stats.Table3Traced)
	case 4:
		run(stats.Table4Traced)
	case 5:
		run(stats.Table5Traced)
	default:
		fmt.Fprintf(os.Stderr, "ssabench: no table %d (have 1-5)\n", *table)
		os.Exit(2)
	}
}

// passCounters reads the pass-counter family of a registry snapshot
// back into the trace-event key space: "<pass>.<counter>" → total over
// every run.
func passCounters(s *metrics.Snapshot) map[string]int64 {
	sums := make(map[string]int64)
	for _, c := range s.Counters {
		if c.Name != pipeline.MetricPassCounters {
			continue
		}
		var pass, counter string
		for _, l := range c.Labels {
			switch l.Key {
			case "pass":
				pass = l.Value
			case "counter":
				counter = l.Value
			}
		}
		sums[pass+"."+counter] += c.Value
	}
	return sums
}

// dumpCounters prints the pass counters and the laoc_analysis_* cache
// counters of s as one list sorted by key.
func dumpCounters(w io.Writer, s *metrics.Snapshot) {
	sums := passCounters(s)
	for _, c := range s.Counters {
		if strings.HasPrefix(c.Name, "laoc_analysis_") {
			sums[c.Name] += c.Value
		}
	}
	for _, k := range obs.SortedKeys(sums) {
		fmt.Fprintf(w, "counter %-55s %12d\n", k, sums[k])
	}
}

// sumSuffix totals the counters whose key ends in suffix — e.g. every
// pass's ".Interference.KillQueries".
func sumSuffix(sums map[string]int64, suffix string) int64 {
	var t int64
	for k, v := range sums {
		if strings.HasSuffix(k, suffix) {
			t += v
		}
	}
	return t
}

// tableRunners maps table numbers to their traced regenerators (Table 1
// is a static workload census — no pipeline runs, nothing to time).
var tableRunners = map[int]func(obs.Tracer) (*stats.Table, error){
	2: stats.Table2Traced,
	3: stats.Table3Traced,
	4: stats.Table4Traced,
	5: stats.Table5Traced,
}

// runBenchInterference times the selected table workload under the
// pairwise oracle engine and the dominance sweep engine, requires their
// table outputs to be byte-identical (exit 1 otherwise — this is the
// correctness gate the CI bench-smoke job relies on), and reports the
// wall-clock ratio plus the interference counter totals per engine,
// read from a fresh registry per repetition.
func runBenchInterference(table int) error {
	if table == 0 {
		table = 2
	}
	run, ok := tableRunners[table]
	if !ok {
		return fmt.Errorf("-bench-interference needs a pipeline table (2-5), got %d", table)
	}
	fmt.Printf("host: %s\n", obs.HostInfo())
	const reps = 3
	type result struct {
		best     time.Duration
		all      []time.Duration
		output   string
		counters map[string]int64
	}
	prev, prevMetrics := interference.DefaultEngine, stats.Metrics
	defer func() { interference.DefaultEngine, stats.Metrics = prev, prevMetrics }()

	engines := []interference.Engine{interference.EnginePairwise, interference.EngineDominance}
	results := make(map[interference.Engine]*result, len(engines))
	for _, e := range engines {
		interference.DefaultEngine = e
		r := &result{}
		for i := 0; i < reps; i++ {
			reg := metrics.New()
			stats.Metrics = reg
			start := time.Now()
			t, err := run(nil)
			d := time.Since(start)
			if err != nil {
				return fmt.Errorf("engine %s: %v", e, err)
			}
			r.all = append(r.all, d)
			if r.best == 0 || d < r.best {
				r.best = d
			}
			if i == 0 {
				r.output, r.counters = t.String(), passCounters(reg.Snapshot())
			} else if t.String() != r.output {
				return fmt.Errorf("engine %s: table %d output differs between repetitions", e, table)
			}
		}
		results[e] = r
		fmt.Printf("engine %-9s table %d: best %v of", e, table, r.best.Round(time.Millisecond))
		for _, d := range r.all {
			fmt.Printf(" %v", d.Round(time.Millisecond))
		}
		fmt.Println()
		for _, suffix := range []string{
			"Interference.KillQueries", "Interference.ResourceKilled",
			"Interference.ResourceInterfere", "Interference.KilledMemoHits",
			"Interference.InterfereMemoHits",
		} {
			fmt.Printf("  %-32s %12d\n", suffix, sumSuffix(r.counters, suffix))
		}
	}

	rp, rd := results[interference.EnginePairwise], results[interference.EngineDominance]
	if rp.output != rd.output {
		return fmt.Errorf("table %d output DIVERGES between engines — correctness bug", table)
	}
	fmt.Printf("outputs: byte-identical\nspeedup (pairwise/dominance, best-of-%d wall): %.2fx\n",
		reps, float64(rp.best)/float64(rd.best))
	return nil
}
