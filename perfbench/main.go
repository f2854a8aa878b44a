// Command perfbench is the repository's benchmark: the batch pipeline
// (the paper's Tables 2–5 job matrix) and the laocd compile service,
// cold and warm, measured end to end and, in a separate traced run,
// layer by layer. See README.md for the workloads, the metrics and
// which layer should move which metric.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload tables --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics (the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1). The lines before it
// are the readable report with the host block and sample counts; the
// full report and the spans of a traced run go to .bench_out/. The
// exit code is nonzero when any correctness check failed.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"time"
)

// def is a metric's name and unit.
type def struct{ name, unit string }

// endToEnd are the metrics a user of the batch or the service sees.
var endToEnd = []def{
	{"setup_s", "s"}, {"funcs_per_s", "1/s"}, {"req_per_s", "1/s"},
	{"latency_p50_ms", "ms"}, {"latency_p99_ms", "ms"}, {"peak_rss_mb", "MB"}, {"moves", "count"},
}

// perLayer are the metrics of single layers, reported by traced runs.
// An "op" is one pipeline job on tables and one reply on serve-*.
var perLayer = func() []def {
	var out []def
	for _, p := range passNames {
		out = append(out, def{"pass." + p + ".ms", "ms/op"})
	}
	return append(out,
		def{"interference.kill_queries", "count/op"}, def{"liveness.query_hit_ratio", "ratio"},
		def{"analysis.liveness_computes", "count/op"}, def{"analysis.liveness_reuse_ratio", "ratio"},
		def{"analysis.dominators_reuse_ratio", "ratio"},
		def{"ssa.build_ms", "ms/op"}, def{"ir.snapshot_ms", "ms/op"},
		def{"ir.cow_materializations", "count/op"}, def{"ir.cow_slab_copies", "count/op"},
		def{"codec.v1.decode_mb_s", "MB/s"}, def{"codec.b1.decode_mb_s", "MB/s"},
		def{"pipeline.unattributed_share", "ratio"}, def{"batch.idle_share", "ratio"},
		def{"server.handler_ms", "ms"}, def{"server.outside_pipeline_ms", "ms"}, def{"server.transport_ms", "ms"},
		def{"server.result_hit_ratio", "ratio"}, def{"server.decode_hit_ratio", "ratio"},
		def{"server.fallbacks", "count"}, def{"server.shed", "count"},
		def{"store.appends", "count/op"}, def{"store.append_mb", "MB/op"},
		def{"store.dropped", "count"}, def{"store.compactions", "count"},
		def{"store.warm_records", "count"}, def{"store.warm_scan_s", "s"},
		def{"runtime.alloc_mb", "MB/op"}, def{"runtime.gc_cycles", "count/op"},
		def{"trace.overhead_share", "ratio"})
}()

var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

const (
	outDir      = ".bench_out"
	experiments = "EXPERIMENTS.md"
)

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload: tables, serve-cold or serve-warm")
	seed := flag.Int64("seed", paperSeed, "workload seed; 1000 is the paper's SPECint population")
	seconds := flag.Int("seconds", 20, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	d := time.Duration(*seconds) * time.Second
	traced := *trace == 1
	var r *result
	var err error
	switch *workload {
	case "tables":
		r, err = runTables(*seed, d, traced, outDir, experiments)
	case "serve-cold":
		r, err = runServe(false, *seed, d, traced, outDir, experiments)
	case "serve-warm":
		r, err = runServe(true, *seed, d, traced, outDir, experiments)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q (have tables, serve-cold, serve-warm)\n", *workload)
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	info := newRunInfo(*workload, *seed, *seconds, traced)
	printHuman(os.Stdout, info, r)
	path, err := writeReportFile(outDir, info, r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("report: %s\n", path)
	keep := endToEnd
	if traced {
		keep = perLayer
	}
	if err := writeResultLine(os.Stdout, r, keep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if r.failed > 0 {
		return 1
	}
	return 0
}
