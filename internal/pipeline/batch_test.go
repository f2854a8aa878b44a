package pipeline_test

import (
	"errors"
	"fmt"
	"testing"

	"outofssa/internal/faultinject"
	"outofssa/internal/ir"
	"outofssa/internal/obs"
	"outofssa/internal/pipeline"
	"outofssa/internal/testprog"
)

// batchJobs builds a job matrix large enough to keep 8 workers busy:
// every testprog function under every named experiment.
func batchJobs() []pipeline.Job {
	var jobs []pipeline.Job
	for _, name := range pipeline.Presets() {
		conf, _ := pipeline.Preset(name)
		for _, f := range testprog.All() {
			f := f
			jobs = append(jobs, pipeline.Job{
				Build:      func() *ir.Func { return f.Clone() },
				Config:     conf,
				Experiment: name,
			})
		}
	}
	return jobs
}

// flatten renders a recorded trace stream with its wall times masked
// out: those differ between any two runs, serial or not. Everything else — run order, pass order,
// counters, snapshots — must be byte-identical across parallelism.
func flatten(rec *obs.Recorder) []string {
	var out []string
	for _, run := range rec.Runs {
		out = append(out, fmt.Sprintf("run %s/%s before=%+v after=%+v ended=%v",
			run.Func, run.Config, run.Before, run.After, run.Ended))
		for i, pass := range run.Started {
			line := "  start " + pass
			if i < len(run.Events) {
				ev := run.Events[i]
				line += fmt.Sprintf(" seq=%d before=%+v after=%+v counters=%v err=%q",
					ev.Seq, ev.Before, ev.After, ev.Counters, ev.Err)
			}
			out = append(out, line)
		}
	}
	return out
}

// TestRunBatchDeterministic is the concurrency acceptance test: a batch
// at parallelism 8 must produce results and a merged trace stream
// identical to the serial run of the same jobs.
func TestRunBatchDeterministic(t *testing.T) {
	serialRec, parRec := &obs.Recorder{}, &obs.Recorder{}
	serial := pipeline.RunBatch(batchJobs(),
		pipeline.WithParallelism(1), pipeline.WithBatchTracer(serialRec))
	par := pipeline.RunBatch(batchJobs(),
		pipeline.WithParallelism(8), pipeline.WithBatchTracer(parRec))

	if len(serial) != len(par) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(par))
	}
	for i := range serial {
		s, p := serial[i], par[i]
		if (s.Err == nil) != (p.Err == nil) {
			t.Fatalf("job %d: error mismatch: %v vs %v", i, s.Err, p.Err)
		}
		if s.Err != nil {
			continue
		}
		if s.Result.Moves != p.Result.Moves ||
			s.Result.WeightedMoves != p.Result.WeightedMoves ||
			s.Result.Instrs != p.Result.Instrs {
			t.Fatalf("job %d: results diverge: moves %d/%d weighted %d/%d instrs %d/%d",
				i, s.Result.Moves, p.Result.Moves,
				s.Result.WeightedMoves, p.Result.WeightedMoves,
				s.Result.Instrs, p.Result.Instrs)
		}
		if s.Func.String() != p.Func.String() {
			t.Fatalf("job %d: final IR diverges", i)
		}
	}

	sLines, pLines := flatten(serialRec), flatten(parRec)
	if len(sLines) != len(pLines) {
		t.Fatalf("trace stream lengths differ: %d vs %d", len(sLines), len(pLines))
	}
	for i := range sLines {
		if sLines[i] != pLines[i] {
			t.Fatalf("trace streams diverge at line %d:\nserial:   %s\nparallel: %s",
				i, sLines[i], pLines[i])
		}
	}
}

// TestRunBatchErrorIsolation: one corrupt job fails on its own; its
// neighbours complete, and the failure lands at the right index.
func TestRunBatchErrorIsolation(t *testing.T) {
	conf, err := pipeline.Preset(pipeline.ExpLphiABIC)
	if err != nil {
		t.Fatal(err)
	}
	conf.Verify = true
	bad := conf
	bad.FaultHook = func(pass string, f *ir.Func) {
		if pass == "pinning-phi" {
			faultinject.Inject(f, faultinject.ClobberPhiArg)
		}
	}
	jobs := []pipeline.Job{
		{Build: func() *ir.Func { return testprog.SwapLoop() }, Config: conf, Experiment: "ok"},
		{Build: func() *ir.Func { return testprog.SwapLoop() }, Config: bad, Experiment: "bad"},
		{Build: func() *ir.Func { return testprog.Diamond() }, Config: conf, Experiment: "ok"},
	}
	results := pipeline.RunBatch(jobs, pipeline.WithParallelism(3))
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("healthy jobs failed: %v, %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Fatal("corrupted job did not fail")
	}
	var pe *pipeline.PassError
	if !errors.As(results[1].Err, &pe) {
		t.Fatalf("corrupted job failed with %T, want *PassError", results[1].Err)
	}
}

// TestRunBatchEmpty: a zero-job batch returns an empty, non-panicking
// result at any parallelism.
func TestRunBatchEmpty(t *testing.T) {
	if res := pipeline.RunBatch(nil, pipeline.WithParallelism(8)); len(res) != 0 {
		t.Fatalf("empty batch returned %d results", len(res))
	}
}
