package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"outofssa/internal/ir"
	"outofssa/internal/obs"
)

// span is one traced interval. Every span of one job or request
// carries that job's or request's ID; Parent names the enclosing span
// of the same ID ("" for the root). Start and End are nanoseconds since
// the run's epoch.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Span names shared by the recorder, the checks and the tests.
const (
	spanJob      = "job"
	spanSnapshot = "snapshot"
	spanSSA      = "ssa-build"
	spanRequest  = "request"
	passPrefix   = "pass."
	codecPrefix  = "codec."
)

// clock is the run's span epoch.
type clock struct{ epoch time.Time }

func (c clock) now() int64 { return time.Since(c.epoch).Nanoseconds() }

// jobTrace is what the tables traced run learns about one pipeline job:
// the snapshot interval, timed around ir.Func.Snapshot inside the job's
// Build closure, and the run and pass wall times from the replayed
// tracer events.
type jobTrace struct {
	id                 int64
	master             *ir.Func // the job's input, for the SSA-build calibration
	snapStart, snapEnd int64
	runWall            int64
	passNames          []string
	passWalls          []int64
	ssaNS              int64
}

// jobTracer is the benchmark's obs.Tracer sink for one batch.
// pipeline.RunBatch replays job recordings in job order after the
// batch, so the k-th RunStart belongs to the k-th job.
type jobTracer struct {
	jobs []*jobTrace
	next int
	cur  *jobTrace
}

func (t *jobTracer) RunStart(string, string, obs.IRStat) {
	t.cur = t.jobs[t.next]
	t.next++
}

func (t *jobTracer) PassStart(string, string, string) {}

func (t *jobTracer) PassEnd(ev *obs.Event) {
	t.cur.passNames = append(t.cur.passNames, ev.Pass)
	t.cur.passWalls = append(t.cur.passWalls, ev.WallNS)
}

func (t *jobTracer) RunEnd(_, _ string, _ obs.IRStat, wallNS int64) { t.cur.runWall = wallNS }

// spans lays one job out as a span tree: the job root, the measured
// snapshot interval, then the SSA build (its calibrated duration) and
// the passes back to back. Only durations are measured after the
// snapshot — the replayed events carry no clock — so those starts are
// derived, and the gaps between passes (the runner's instrumentation)
// stay inside the job as its self time.
func (j *jobTrace) spans() []span {
	out := []span{{ID: j.id, Name: spanSnapshot, Parent: spanJob, Start: j.snapStart, End: j.snapEnd}}
	at := j.snapEnd
	out = append(out, span{ID: j.id, Name: spanSSA, Parent: spanJob, Start: at, End: at + j.ssaNS})
	at += j.ssaNS
	runStart := at
	for i, name := range j.passNames {
		out = append(out, span{ID: j.id, Name: passPrefix + name, Parent: spanJob, Start: at, End: at + j.passWalls[i]})
		at += j.passWalls[i]
	}
	end := runStart + j.runWall
	if end < at {
		end = at
	}
	return append([]span{{ID: j.id, Name: spanJob, Start: j.snapStart, End: end}}, out...)
}

// checkSpans verifies the span tree: every non-root span names a
// parent that exists under the same ID, every interval is ordered,
// every pass span hangs off a job, and a child lies inside its parent
// unless its name starts with loose (spans re-timed after the fact).
func checkSpans(spans []span, loose string) error {
	type key struct {
		id   int64
		name string
	}
	byKey := make(map[key]span, len(spans))
	for _, s := range spans {
		byKey[key{s.ID, s.Name}] = s
	}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d/%s ends before it starts", s.ID, s.Name)
		}
		if strings.HasPrefix(s.Name, passPrefix) && s.Parent != spanJob {
			return fmt.Errorf("pass span %d/%s has parent %q, want %q", s.ID, s.Name, s.Parent, spanJob)
		}
		if s.Parent == "" {
			continue
		}
		p, ok := byKey[key{s.ID, s.Parent}]
		if !ok {
			return fmt.Errorf("span %d/%s: no parent %q with the same id", s.ID, s.Name, s.Parent)
		}
		if loose != "" && strings.HasPrefix(s.Name, loose) {
			continue
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d/%s [%d,%d] lies outside its parent [%d,%d]", s.ID, s.Name, s.Start, s.End, p.Start, p.End)
		}
	}
	return nil
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
