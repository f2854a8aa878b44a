// Metrics wiring for the pass runner and the batch driver: names,
// HELP strings, and the metrics sink. The per-pass metrics are an
// aggregation of the trace event stream: WithMetrics (or
// WithBatchMetrics) adds a sink to the run's tracer chain, so the
// registry sees exactly the events a tracer sees. With no registry the
// runner keeps the nil-tracer zero-allocation fast path, pinned by
// TestNilMetricsAllocatesNothing.
package pipeline

import (
	"errors"
	"strings"

	"outofssa/internal/ir"
	"outofssa/internal/obs"
	"outofssa/internal/obs/metrics"
)

// Metric names follow the DESIGN.md schema laoc_<subsystem>_<name>
// with unit suffixes; label axes are pass, config, counter.
const (
	// MetricRuns counts pipeline runs per experiment configuration.
	MetricRuns = "laoc_pipeline_runs_total"
	// MetricRunWallNS is the whole-run wall-time distribution per
	// experiment configuration (includes instrumentation overhead).
	MetricRunWallNS = "laoc_pipeline_run_wall_ns"
	// MetricPassWallNS is the per-pass wall-time distribution.
	MetricPassWallNS = "laoc_pipeline_pass_wall_ns"
	// MetricPassErrors counts failed passes (errors, contained panics,
	// checked-mode violations) per pass; MetricPanics the contained
	// panics among them; MetricFallbacks the runs rescued by the naive
	// fallback translation.
	MetricPassErrors = "laoc_pipeline_pass_errors_total"
	MetricPanics     = "laoc_pipeline_panics_total"
	MetricFallbacks  = "laoc_pipeline_fallbacks_total"
	// MetricPassCounters sums every flattened pass counter of the event
	// stream ("<pass>.<Field.Path>" in trace events) as
	// {pass=...,counter=...}.
	MetricPassCounters = "laoc_pipeline_pass_counters_total"
	// MetricMaxLive is the derived per-function MAXLIVE distribution
	// (register pressure), computed post-pipeline from the memoized
	// liveness. Deterministic: perfgate compares it exactly.
	MetricMaxLive = "laoc_liveness_maxlive"

	// Batch driver metrics (RunBatch).
	MetricBatchJobs       = "laoc_batch_jobs_total"
	MetricBatchJobWallNS  = "laoc_batch_job_wall_ns"
	MetricBatchInflight   = "laoc_batch_jobs_inflight"
	MetricBatchQueueDepth = "laoc_batch_queue_depth"

	// IR slab-operation metrics. The counters themselves are atomics
	// inside internal/ir (which sits below the registry in the import
	// graph); init below bridges them onto metrics.Default via
	// CounterFunc, so they show up in -metrics-out / laocd exposition
	// without double bookkeeping. laoc_ir_clone_slab_allocs_total /
	// laoc_ir_clones_total is the observed allocations-per-clone ratio
	// the bench-smoke CI gate asserts on.
	MetricIRClones          = "laoc_ir_clones_total"
	MetricIRCloneSlabAllocs = "laoc_ir_clone_slab_allocs_total"
	MetricIRRestores        = "laoc_ir_restores_total"
	MetricIRMarshals        = "laoc_ir_marshal_total"
	MetricIRUnmarshals      = "laoc_ir_unmarshal_total"

	// Copy-on-write snapshot metrics. laoc_ir_cow_materializations_total
	// / laoc_ir_snapshots_total is the copies-materialized ratio — the
	// fraction of snapshots that ever had to privatize storage. The
	// scaling-smoke CI gate pins both counters exactly on the Table 2
	// workload; read-only fan-outs keep the ratio at zero.
	MetricIRSnapshots          = "laoc_ir_snapshots_total"
	MetricIRSnapshotSlabAllocs = "laoc_ir_snapshot_slab_allocs_total"
	MetricIRCOWMaterialized    = "laoc_ir_cow_materializations_total"
	MetricIRCOWSlabCopies      = "laoc_ir_cow_slab_copies_total"
	MetricIRCOWAdoptions       = "laoc_ir_cow_adoptions_total"
)

func init() {
	d := metrics.Default
	d.CounterFunc(MetricIRClones, func() int64 { return ir.Stats().Clones })
	d.CounterFunc(MetricIRCloneSlabAllocs, func() int64 { return ir.Stats().CloneSlabAllocs })
	d.CounterFunc(MetricIRRestores, func() int64 { return ir.Stats().Restores })
	d.CounterFunc(MetricIRMarshals, func() int64 { return ir.Stats().MarshalsV1 }, metrics.L("schema", "v1"))
	d.CounterFunc(MetricIRMarshals, func() int64 { return ir.Stats().MarshalsB1 }, metrics.L("schema", "b1"))
	d.CounterFunc(MetricIRUnmarshals, func() int64 { return ir.Stats().UnmarshalsV1 }, metrics.L("schema", "v1"))
	d.CounterFunc(MetricIRUnmarshals, func() int64 { return ir.Stats().UnmarshalsB1 }, metrics.L("schema", "b1"))
	d.CounterFunc(MetricIRSnapshots, func() int64 { return ir.Stats().Snapshots })
	d.CounterFunc(MetricIRSnapshotSlabAllocs, func() int64 { return ir.Stats().SnapshotSlabAllocs })
	d.CounterFunc(MetricIRCOWMaterialized, func() int64 { return ir.Stats().COWMaterializations })
	d.CounterFunc(MetricIRCOWSlabCopies, func() int64 { return ir.Stats().COWSlabCopies })
	d.CounterFunc(MetricIRCOWAdoptions, func() int64 { return ir.Stats().COWAdoptions })
	d.SetHelp(MetricIRSnapshots, "ir.Func.Snapshot calls (copy-on-write snapshots; chunk copies only, flat slabs deferred).")
	d.SetHelp(MetricIRSnapshotSlabAllocs, "Up-front heap allocations performed by Snapshot, summed (O(arena chunks), no flat slabs).")
	d.SetHelp(MetricIRCOWMaterialized, "Funcs that faulted at least one shared slab into private storage; divide by laoc_ir_snapshots_total for the copies-materialized ratio.")
	d.SetHelp(MetricIRCOWSlabCopies, "Individual deferred slab copies performed by copy-on-write faults.")
	d.SetHelp(MetricIRCOWAdoptions, "Mutations that adopted the family's shared storage copy-free (last reader standing).")
	d.SetHelp(MetricIRClones, "ir.Func.Clone calls (slab memcpy clones).")
	d.SetHelp(MetricIRCloneSlabAllocs, "Heap allocations performed by Clone, summed; divide by laoc_ir_clones_total for the per-clone ratio (O(arena chunks)).")
	d.SetHelp(MetricIRRestores, "ir.Func.RestoreFrom copy-backs (snapshot rollbacks).")
	d.SetHelp(MetricIRMarshals, "IR documents encoded, by wire schema.")
	d.SetHelp(MetricIRUnmarshals, "IR documents decoded, by wire schema.")
}

// WithMetrics attaches a metrics registry to one Run call. The per-pass
// metrics — the wall histogram, error and panic counters, the pass
// counters — and the run wall histogram come from a sink added to the
// run's tracer chain; the run outcomes (runs, fallbacks, MAXLIVE) are
// recorded by the run itself. The sink is built, and the HELP strings
// registered, when WithMetrics is called: callers that run many
// functions against one registry build the option once and reuse it. A
// nil registry is the disabled fast path — identical to not passing
// the option.
func WithMetrics(reg *metrics.Registry) Option {
	if reg == nil {
		return func(*runConfig) {}
	}
	sink := newMetricsSink(reg)
	return func(rc *runConfig) {
		rc.metrics = reg
		rc.tracer = obs.Multi(rc.tracer, sink)
	}
}

// metricsSink is the registry's end of the event stream: an obs.Tracer
// that aggregates pass and run events into the pipeline metrics. Every
// update is an atomic cell write, so one sink serves concurrent runs.
type metricsSink struct{ reg *metrics.Registry }

func newMetricsSink(reg *metrics.Registry) *metricsSink {
	reg.SetHelp(MetricRuns, "Pipeline runs started, by experiment configuration.")
	reg.SetHelp(MetricRunWallNS, "Whole-run wall time in nanoseconds, by experiment configuration.")
	reg.SetHelp(MetricPassWallNS, "Per-pass wall time in nanoseconds.")
	reg.SetHelp(MetricPassErrors, "Failed passes: errors, contained panics, checked-mode violations.")
	reg.SetHelp(MetricPanics, "Panics contained by the per-pass recover.")
	reg.SetHelp(MetricFallbacks, "Runs that fell back to the naive out-of-SSA translation.")
	reg.SetHelp(MetricPassCounters, "Flattened pass counters, summed over the trace events.")
	reg.SetHelp(MetricMaxLive, "Per-function MAXLIVE (maximum simultaneously live values) after the pipeline.")
	reg.SetHelp(MetricBatchJobs, "Batch jobs completed.")
	reg.SetHelp(MetricBatchJobWallNS, "Per-job wall time in nanoseconds (build + run).")
	reg.SetHelp(MetricBatchInflight, "Batch jobs currently executing.")
	reg.SetHelp(MetricBatchQueueDepth, "Batch jobs not yet claimed by a worker.")
	return &metricsSink{reg: reg}
}

func (*metricsSink) RunStart(string, string, obs.IRStat) {}
func (*metricsSink) PassStart(string, string, string)    {}

func (s *metricsSink) PassEnd(ev *obs.Event) {
	pass := metrics.L("pass", ev.Pass)
	s.reg.Histogram(MetricPassWallNS, pass).Observe(ev.WallNS)
	for k, v := range ev.Counters {
		s.reg.Counter(MetricPassCounters, pass,
			metrics.L("counter", strings.TrimPrefix(k, ev.Pass+"."))).Add(v)
	}
	if ev.Cause != nil {
		s.reg.Counter(MetricPassErrors, pass).Inc()
		var pa *PanicError
		if errors.As(ev.Cause, &pa) {
			s.reg.Counter(MetricPanics).Inc()
		}
	}
}

func (s *metricsSink) RunEnd(_, config string, _ obs.IRStat, wallNS int64) {
	s.reg.Histogram(MetricRunWallNS, metrics.L("config", config)).Observe(wallNS)
}
