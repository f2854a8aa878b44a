package main

import (
	"fmt"
	"path/filepath"
	"runtime"

	"outofssa/internal/analysis"
	"outofssa/internal/ir"
	"outofssa/internal/obs/metrics"
	"outofssa/internal/pipeline"
)

// passNames are the pipeline passes the per-layer table reports.
var passNames = []string{
	"strip-pins", "ssaopt", "psi", "sreedhar", "pinning-sp", "pinning-abi",
	"pinning-cssa", "pre-pin", "pinning-phi", "out-of-pinned-ssa", "naive-abi", "chaitin",
}

func setPassMetrics(r *result, passNS map[string]int64, ops float64) {
	for _, p := range passNames {
		r.set("pass."+p+".ms", ratio(float64(passNS[p])/1e6, ops))
	}
}

// bypass reports 0 for the layers a workload never reaches.
func bypass(r *result, names ...string) {
	for _, n := range names {
		r.set(n, 0)
	}
}

// serverLayerNames are the layers only the serve workloads reach.
var serverLayerNames = []string{
	"server.handler_ms", "server.outside_pipeline_ms", "server.transport_ms",
	"server.result_hit_ratio", "server.decode_hit_ratio", "server.fallbacks", "server.shed",
	"codec.v1.decode_mb_s", "codec.b1.decode_mb_s",
	"store.appends", "store.append_mb", "store.dropped", "store.compactions",
	"store.warm_records", "store.warm_scan_s",
}

// globalStats are the process-wide counters a phase is measured by:
// analysis-cache and IR slab counters and the Go runtime's.
type globalStats struct {
	an    analysis.CacheStats
	slab  ir.SlabStats
	alloc uint64
	gc    uint32
}

func readGlobal() globalStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return globalStats{an: analysis.Stats(), slab: ir.Stats(), alloc: ms.TotalAlloc, gc: ms.NumGC}
}

// report sets the analysis, IR snapshot and runtime layers from the
// change between before and g over ops operations.
func (g globalStats) report(r *result, before globalStats, ops float64) {
	d := func(a, b uint64) float64 { return float64(a - b) }
	r.set("analysis.liveness_computes", ratio(d(g.an.LivenessComputes, before.an.LivenessComputes), ops))
	r.set("analysis.liveness_reuse_ratio", ratio(d(g.an.LivenessReused, before.an.LivenessReused),
		d(g.an.LivenessRequests, before.an.LivenessRequests)))
	r.set("analysis.dominators_reuse_ratio", ratio(d(g.an.DominatorsReused, before.an.DominatorsReused),
		d(g.an.DominatorsRequests, before.an.DominatorsRequests)))
	r.set("ir.cow_materializations", ratio(float64(g.slab.COWMaterializations-before.slab.COWMaterializations), ops))
	r.set("ir.cow_slab_copies", ratio(float64(g.slab.COWSlabCopies-before.slab.COWSlabCopies), ops))
	r.set("runtime.alloc_mb", ratio(d(g.alloc, before.alloc)/(1<<20), ops))
	r.set("runtime.gc_cycles", ratio(float64(g.gc-before.gc), ops))
}

// counterSum totals a registry counter over the cells whose labels
// include every key=value pair of want.
func counterSum(s *metrics.Snapshot, name string, want map[string]string) int64 {
	var t int64
	for _, c := range s.Counters {
		if c.Name == name && labelsMatch(c.Labels, want) {
			t += c.Value
		}
	}
	return t
}

// histSum totals a registry histogram's sum and count over the cells
// whose labels include want.
func histSum(s *metrics.Snapshot, name string, want map[string]string) (sum, count int64) {
	for _, h := range s.Histograms {
		if h.Name == name && labelsMatch(h.Labels, want) {
			sum += h.Sum
			count += h.Count
		}
	}
	return sum, count
}

func labelsMatch(ls []metrics.Label, want map[string]string) bool {
	n := 0
	for _, l := range ls {
		if v, ok := want[l.Key]; ok && v == l.Value {
			n++
		}
	}
	return n == len(want)
}

// setCounterMetrics reports the interference and liveness query
// counters the pass runner mirrors onto the registry, as the change
// from before (nil: from zero) to after.
func setCounterMetrics(r *result, after, before *metrics.Snapshot, ops float64) {
	delta := func(counter string) float64 {
		want := map[string]string{"counter": counter}
		v := counterSum(after, pipeline.MetricPassCounters, want)
		if before != nil {
			v -= counterSum(before, pipeline.MetricPassCounters, want)
		}
		return float64(v)
	}
	hits, misses := delta("Interference.LiveQueryHits"), delta("Interference.LiveQueryMisses")
	r.set("interference.kill_queries", ratio(delta("Interference.KillQueries"), ops))
	r.set("liveness.query_hit_ratio", ratio(hits, hits+misses))
}

// overhead is the share of untraced throughput the traced run lost.
func overhead(untraced, traced float64) float64 { return 1 - ratio(traced, untraced) }

func spanPath(dir, workload string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
}
