// Package obs is the observability substrate of the out-of-SSA
// pipeline: per-pass tracing events carrying wall time and IR
// provenance (move/instruction/φ/pin counts before and after each
// pass), plus pluggable sinks — a human-readable summary
// writer, a JSONL event stream for machine diffing, and a no-op tracer.
// The metrics registry is fed the same way: internal/pipeline attaches
// it as one more sink of this stream, so traces and metrics are two
// aggregations of the same events.
//
// The instrumented pass runner in internal/pipeline emits these events;
// with a nil Tracer the runner takes a fast path that performs no
// measurement and allocates nothing, so the default (untraced) pipeline
// pays zero overhead.
package obs

import "outofssa/internal/ir"

// IRStat is a point-in-time snapshot of the counters the paper's
// evaluation is built on: move instructions (Tables 2-4), the 5^depth
// weighted move count (Table 5), and the structural sizes that explain
// where a pass spent its effort.
type IRStat struct {
	// Moves is f.CountMoves(): Copy instructions plus non-trivial
	// ParCopy slots.
	Moves int `json:"moves"`
	// WeightedMoves is f.WeightedMoves() computed against the loop
	// depths as of the snapshot (5^depth per move).
	WeightedMoves int64 `json:"weighted_moves"`
	// Instrs is the total instruction count.
	Instrs int `json:"instrs"`
	// Phis is the number of φ instructions still in the function.
	Phis int `json:"phis"`
	// Pins is the number of pinned operands (defs and uses).
	Pins int `json:"pins"`
	// Blocks and Values size the CFG and the value universe.
	Blocks int `json:"blocks"`
	Values int `json:"values"`
}

// Snapshot measures f. It is cheap (linear scans, no analyses) but not
// free; the pipeline runner only calls it when a tracer is attached,
// once per pass boundary.
func Snapshot(f *ir.Func) IRStat {
	return IRStat{
		Moves:         f.CountMoves(),
		WeightedMoves: f.WeightedMoves(),
		Instrs:        f.NumInstrs(),
		Phis:          f.CountPhis(),
		Pins:          f.CountPins(),
		Blocks:        len(f.Blocks()),
		Values:        f.NumValues(),
	}
}

// Event describes one executed pass.
type Event struct {
	// Func and Config identify the run: the function name and the
	// experiment configuration label (empty when the caller has none).
	Func   string `json:"fn"`
	Config string `json:"config,omitempty"`
	// Pass is the pass name; Seq its position in the run (0-based).
	Pass string `json:"pass"`
	Seq  int    `json:"seq"`
	// WallNS is the pass wall-clock time in nanoseconds.
	WallNS int64 `json:"wall_ns"`
	// Before and After are IR snapshots around the pass.
	Before IRStat `json:"before"`
	After  IRStat `json:"after"`
	// Counters carries pass-specific counters (flattened from the pass's
	// Stats struct, e.g. "pinning-phi.Merges" or
	// "out-of-pinned-ssa.Interference.KillQueries").
	Counters map[string]int64 `json:"counters,omitempty"`
	// Err is the pass failure (pass error, contained panic, or checked-mode
	// verifier violation), empty on success. A run whose last event carries
	// Err and that has no run_end record died on that pass.
	Err string `json:"err,omitempty"`
	// Cause is the failure behind Err as an error value, for in-process
	// sinks that classify it (the metrics sink counts contained panics
	// through errors.As). It is not serialized.
	Cause error `json:"-"`
}

// Tracer receives the event stream of instrumented pipeline runs. One
// run is bracketed by RunStart/RunEnd; each pass inside it by
// PassStart/PassEnd. Implementations need not be safe for concurrent
// use unless documented otherwise.
type Tracer interface {
	// RunStart opens a run on function fn under the named experiment
	// configuration; before is the IR state entering the pipeline.
	RunStart(fn, config string, before IRStat)
	// PassStart announces that the named pass is about to execute.
	PassStart(fn, config, pass string)
	// PassEnd delivers the measurements of the completed pass. The event
	// is owned by the tracer after the call.
	PassEnd(ev *Event)
	// RunEnd closes the run; after is the final IR state and wallNS the
	// total run time including instrumentation overhead.
	RunEnd(fn, config string, after IRStat, wallNS int64)
}

// Nop is a Tracer that discards everything. Prefer passing a nil Tracer
// where the API accepts one — the pipeline short-circuits on nil and
// skips measurement entirely; Nop still pays for the snapshots.
var Nop Tracer = nop{}

type nop struct{}

func (nop) RunStart(string, string, IRStat)      {}
func (nop) PassStart(string, string, string)     {}
func (nop) PassEnd(*Event)                       {}
func (nop) RunEnd(string, string, IRStat, int64) {}

// Multi fans events out to every non-nil tracer in order. It returns
// nil when no tracer remains, preserving the pipeline's fast path.
func Multi(ts ...Tracer) Tracer {
	var live []Tracer
	for _, t := range ts {
		if t != nil {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multi(live)
}

type multi []Tracer

func (m multi) RunStart(fn, config string, before IRStat) {
	for _, t := range m {
		t.RunStart(fn, config, before)
	}
}

func (m multi) PassStart(fn, config, pass string) {
	for _, t := range m {
		t.PassStart(fn, config, pass)
	}
}

func (m multi) PassEnd(ev *Event) {
	for _, t := range m {
		t.PassEnd(ev)
	}
}

func (m multi) RunEnd(fn, config string, after IRStat, wallNS int64) {
	for _, t := range m {
		t.RunEnd(fn, config, after, wallNS)
	}
}
