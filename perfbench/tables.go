package main

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"outofssa/internal/coalesce"
	"outofssa/internal/interference"
	"outofssa/internal/ir"
	"outofssa/internal/obs/metrics"
	"outofssa/internal/pipeline"
	"outofssa/internal/ssa"
	"outofssa/internal/testprog"
	"outofssa/internal/workload"
)

// paperSeed is the seed at which the seeded SPECint population is
// exactly workload.SPECint, the population behind EXPERIMENTS.md.
const paperSeed = 1000

// batchWorkers is the batch user's parallelism (ssabench -parallel 2)
// and the server's worker count: the host has two cores.
const batchWorkers = 2

// specintOptions are workload.SPECint's generator options. checkPaperSeed
// catches any drift between the two.
var specintOptions = testprog.RandOptions{MaxDepth: 5, Vars: 5, StmtsPerBlock: 5, Calls: true, Stack: true}

// specintPopulation draws the SPECint stand-in from seed with the size
// profile of workload.SPECint: function i is the first draw from the
// seed's generator stream whose instruction count is within 10% of
// paper function i's (the closest of sizeTries draws otherwise). The
// population's sizes are heavy-tailed, so unmatched draws let one seed
// carry a quarter more work than another; matched draws vary the code
// but not the amount of it. Each seed owns a disjoint block of
// generator seeds, and at paperSeed the first draw is the paper
// function itself.
func specintPopulation(seed int64) *workload.Suite {
	const sizeTries = 256
	n := int64(workload.SPECintFuncs)
	base := paperSeed + (seed-paperSeed)*n*sizeTries
	paper := workload.SPECint().Funcs
	funcs := make([]*ir.Func, n)
	for i, p := range paper {
		want := p.NumInstrs()
		var best *ir.Func
		for j := int64(0); j < sizeTries; j++ {
			f := testprog.Rand(base+int64(i)+j*n, specintOptions)
			if best == nil || sizeGap(f, want) < sizeGap(best, want) {
				best = f
			}
			if 10*sizeGap(f, want) <= want {
				break
			}
		}
		best.Name = fmt.Sprintf("synth%03d", i)
		funcs[i] = best
	}
	return &workload.Suite{Name: "SPECint", Funcs: funcs}
}

func sizeGap(f *ir.Func, want int) int {
	d := f.NumInstrs() - want
	if d < 0 {
		return -d
	}
	return d
}

// checkPaperSeed asserts that the seeded population at paperSeed prints
// exactly the functions of workload.SPECint.
func checkPaperSeed() error {
	want, got := workload.SPECint(), specintPopulation(paperSeed)
	for i := range want.Funcs {
		if got.Funcs[i].String() != want.Funcs[i].String() {
			return fmt.Errorf("seed %d does not regenerate workload.SPECint: %s differs", paperSeed, want.Funcs[i].Name)
		}
	}
	return nil
}

// column is one table column: a pass configuration and its label.
type column struct {
	exp      string
	conf     pipeline.Config
	weighted bool // Table 5 totals 5^depth-weighted moves
}

// tableGroup is one table's columns; table 0 holds the two presets no
// table uses, so the pre-pin and psi passes are measured too.
type tableGroup struct {
	table int
	cols  []column
}

// tableGroups returns the 14 columns of Tables 2–5 in EXPERIMENTS.md
// order, plus the extension group.
func tableGroups() ([]tableGroup, error) {
	var err error
	preset := func(names ...string) []column {
		cols := make([]column, len(names))
		for i, n := range names {
			conf, e := pipeline.Preset(n)
			err = errors.Join(err, e)
			cols[i] = column{exp: n, conf: conf}
		}
		return cols
	}
	variants := []struct {
		name string
		opt  coalesce.Options
	}{
		{"base", coalesce.Options{}},
		{"depth", coalesce.Options{DepthConstraint: true}},
		{"opt", coalesce.Options{Mode: interference.Optimistic}},
		{"pess", coalesce.Options{Mode: interference.Pessimistic}},
	}
	var t5 []column
	for _, v := range variants {
		c := preset(pipeline.ExpLphiABIC)[0]
		c.conf.Coalesce = v.opt
		c.exp += "/" + v.name
		c.weighted = true
		t5 = append(t5, c)
	}
	groups := []tableGroup{
		{2, preset(pipeline.ExpLphiC, pipeline.ExpC2, pipeline.ExpSphiC)},
		{3, preset(pipeline.ExpLphiABIC, pipeline.ExpSphiLABIC, pipeline.ExpLABIC, pipeline.ExpC3)},
		{4, preset(pipeline.ExpLphiABI, pipeline.ExpSphi, pipeline.ExpLABI)},
		{5, t5},
		{0, preset(pipeline.ExpPrePin, pipeline.ExpPsi)},
	}
	return groups, err
}

// paperRows are the fixed suites of the paper's tables, in row order.
func paperRows() []*workload.Suite {
	return []*workload.Suite{workload.VALcc1(), workload.VALcc2(), workload.Examples(), workload.LAILarge()}
}

// tablesInputs builds the workload's rows — the fixed suites and the
// seeded SPECint population — and freezes them as masters that every
// job snapshots.
func tablesInputs(seed int64) []*workload.Suite {
	rows := append(paperRows(), specintPopulation(seed))
	for _, s := range rows {
		for _, f := range s.Funcs {
			f.Freeze()
		}
	}
	return rows
}

// batchJobs lays one table group over one suite out as pipeline jobs in
// (column, function) order, as the stats package does. build makes the
// Build closure of each job from its input.
func batchJobs(g tableGroup, s *workload.Suite, build func(f *ir.Func) func() *ir.Func) []pipeline.Job {
	jobs := make([]pipeline.Job, 0, len(g.cols)*len(s.Funcs))
	for _, c := range g.cols {
		for _, f := range s.Funcs {
			jobs = append(jobs, pipeline.Job{Build: build(f), Config: c.conf, Experiment: c.exp})
		}
	}
	return jobs
}

func plainSnapshot(f *ir.Func) func() *ir.Func { return f.Snapshot }

// cells totals one batch's results per column (weighted for Table 5).
func cells(g tableGroup, s *workload.Suite, res []pipeline.JobResult) []int64 {
	out := make([]int64, len(g.cols))
	for i := range res {
		if res[i].Err != nil {
			continue
		}
		ci := i / len(s.Funcs)
		if g.cols[ci].weighted {
			out[ci] += res[i].Result.WeightedMoves
		} else {
			out[ci] += int64(res[i].Result.Moves)
		}
	}
	return out
}

// execArgs are the fixed argument vectors of the semantic check (the
// pipeline's own fallback cross-check uses the same shape).
var execArgs = [][]int64{{0, 0, 0}, {1, 2, 3}, {9, 4, 2}, {17, 5, 1}}

const execBudget = 1 << 20

// execRef is a function's reference behaviour on execArgs; a nil entry
// means the reference ran over budget, so that vector gives no verdict.
type execRef []*ir.ExecResult

func referenceExec(f *ir.Func) (execRef, error) {
	ref := make(execRef, len(execArgs))
	for i, args := range execArgs {
		res, err := ir.Exec(f, args, execBudget)
		if errors.Is(err, ir.ErrStepBudget) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("reference %s on %v: %w", f.Name, args, err)
		}
		ref[i] = res
	}
	return ref, nil
}

// execCheck runs out on execArgs and compares it with the reference.
// It returns how many vectors gave no verdict.
func execCheck(ref execRef, out *ir.Func) (int, error) {
	noVerdict := 0
	for i, args := range execArgs {
		if ref[i] == nil {
			noVerdict++
			continue
		}
		// The translation executes extra copies; doubling the budget keeps
		// a reference that just fit from failing the output.
		have, err := ir.Exec(out, args, 2*execBudget)
		if err != nil {
			return noVerdict, fmt.Errorf("output %s on %v: %w", out.Name, args, err)
		}
		if !ref[i].Equal(have) {
			return noVerdict, fmt.Errorf("output %s differs from its input on %v", out.Name, args)
		}
	}
	return noVerdict, nil
}

// tablesBench is the tables workload: the Tables 2–5 job matrix plus
// the two extension presets, run through pipeline.RunBatch at
// parallelism 2 with no tracer or registry.
type tablesBench struct {
	seed   int64
	groups []tableGroup
	rows   []*workload.Suite
	// ref holds the reference cells of every (group, row) batch, from
	// the check pass; timed passes must reproduce them.
	ref [][]int64
}

func (b *tablesBench) batchIndex(gi, ri int) int { return gi*len(b.rows) + ri }

// check runs the matrix once before timing. Every job's output must
// match its input under ir.Exec; the paper rows must reproduce the
// Measured tables of EXPERIMENTS.md; the seeded rows' cells become the
// reference for the timed passes. It returns the moves metric: the
// final move count summed over every job of the paper's own inputs,
// which does not depend on the seed.
func (b *tablesBench) check(r *result, experiments string) (int64, error) {
	want, err := measuredTables(experiments)
	if err != nil {
		return 0, err
	}
	if err := checkPaperSeed(); err != nil {
		r.attempted++
		r.fail("%v", err)
	}
	rows := b.rows
	paperSpec := len(rows) - 1
	if b.seed != paperSeed {
		paperSpec = len(rows)
		spec := specintPopulation(paperSeed)
		for _, f := range spec.Funcs {
			f.Freeze()
		}
		rows = append(slices.Clone(rows), spec)
	}
	b.ref = make([][]int64, len(b.groups)*len(b.rows))
	got := map[int]map[string][]int64{}
	refs := map[*ir.Func]execRef{}
	var moves int64
	for gi, g := range b.groups {
		got[g.table] = map[string][]int64{}
		for ri, s := range rows {
			paper := ri < len(b.rows)-1 || ri == paperSpec
			jobs := batchJobs(g, s, plainSnapshot)
			res := pipeline.RunBatch(jobs, pipeline.WithParallelism(batchWorkers))
			for i := range res {
				r.attempted++
				f := s.Funcs[i%len(s.Funcs)]
				if res[i].Err != nil {
					r.fail("%s/%s/%s: %v", s.Name, jobs[i].Experiment, f.Name, res[i].Err)
					continue
				}
				ref, ok := refs[f]
				if !ok {
					if ref, err = referenceExec(f); err != nil {
						return 0, err
					}
					refs[f] = ref
				}
				nv, err := execCheck(ref, res[i].Func)
				r.noVerdict += nv
				if err != nil {
					r.fail("%s/%s: %v", s.Name, jobs[i].Experiment, err)
				}
				if paper {
					moves += int64(res[i].Result.Moves)
				}
			}
			c := cells(g, s, res)
			if ri < len(b.rows) {
				b.ref[b.batchIndex(gi, ri)] = c
			}
			if paper {
				got[g.table][s.Name] = c
			}
		}
	}
	compareMeasured(r, got, want)
	return moves, nil
}

// compareMeasured checks every cell of Tables 2–5 against
// EXPERIMENTS.md, one operation per row.
func compareMeasured(r *result, got, want map[int]map[string][]int64) {
	for table := 2; table <= 5; table++ {
		for name, cellsWant := range want[table] {
			r.attempted++
			if !slices.Equal(got[table][name], cellsWant) {
				r.fail("Table %d %s: cells %v, EXPERIMENTS.md has %v", table, name, got[table][name], cellsWant)
			}
		}
	}
}

// tablesTrace collects the traced passes: a job record per job, the
// benchmark-owned registry the batches report into, and the batch walls.
type tablesTrace struct {
	clk       clock
	reg       *metrics.Registry
	jobs      []*jobTrace
	batchWall time.Duration
}

// pass runs the whole matrix once and checks every batch against the
// reference cells. With tt set, each batch carries the benchmark's
// tracer sink and registry and each job times its snapshot. It returns
// the number of jobs run.
func (b *tablesBench) pass(r *result, tt *tablesTrace) int {
	n := 0
	for gi, g := range b.groups {
		for ri, s := range b.rows {
			build := plainSnapshot
			var opts []pipeline.BatchOption
			var jt *jobTracer
			if tt != nil {
				jt = &jobTracer{}
				build = func(f *ir.Func) func() *ir.Func {
					rec := &jobTrace{id: int64(len(tt.jobs)), master: f}
					tt.jobs = append(tt.jobs, rec)
					jt.jobs = append(jt.jobs, rec)
					return func() *ir.Func {
						rec.snapStart = tt.clk.now()
						snap := f.Snapshot()
						rec.snapEnd = tt.clk.now()
						return snap
					}
				}
				opts = append(opts, pipeline.WithBatchTracer(jt), pipeline.WithBatchMetrics(tt.reg))
			}
			jobs := batchJobs(g, s, build)
			t0 := time.Now()
			res := pipeline.RunBatch(jobs, append(opts, pipeline.WithParallelism(batchWorkers))...)
			if tt != nil {
				tt.batchWall += time.Since(t0)
			}
			n += len(jobs)
			r.attempted += len(jobs)
			for i := range res {
				if res[i].Err != nil {
					r.fail("%s/%s/%s: %v", s.Name, jobs[i].Experiment, res[i].Func.Name, res[i].Err)
				}
			}
			c := cells(g, s, res)
			for ci, want := range b.ref[b.batchIndex(gi, ri)] {
				if c[ci] != want {
					r.fail("%s/%s: cell %d, reference %d", s.Name, g.cols[ci].exp, c[ci], want)
				}
			}
		}
	}
	return n
}

// timed runs whole passes until d has elapsed and returns the jobs run,
// the elapsed wall time and each pass's wall time in milliseconds.
func (b *tablesBench) timed(r *result, d time.Duration, tt *tablesTrace) (int, time.Duration, []float64) {
	var walls []float64
	jobs := 0
	start := time.Now()
	for time.Since(start) < d {
		t0 := time.Now()
		jobs += b.pass(r, tt)
		walls = append(walls, ms(time.Since(t0)))
	}
	return jobs, time.Since(start), walls
}

// calibrateSSA times ssa.Build on a fresh snapshot of every input
// (median of three), the SSA-construction cost a job pays inside
// pipeline.Run where no seam reaches it.
func calibrateSSA(rows []*workload.Suite) (map[*ir.Func]int64, error) {
	out := map[*ir.Func]int64{}
	for _, s := range rows {
		for _, f := range s.Funcs {
			var ts []float64
			for k := 0; k < 3; k++ {
				g := f.Snapshot()
				t0 := time.Now()
				if _, err := ssa.Build(g); err != nil {
					return nil, fmt.Errorf("ssa.Build %s: %w", f.Name, err)
				}
				ts = append(ts, float64(time.Since(t0).Nanoseconds()))
			}
			out[f] = int64(median(ts))
		}
	}
	return out, nil
}

// runTables is the tables workload end to end.
func runTables(seed int64, seconds time.Duration, trace bool, outDir, experiments string) (*result, error) {
	r := newResult()
	groups, err := tableGroups()
	if err != nil {
		return nil, err
	}
	b := &tablesBench{seed: seed, groups: groups}

	var setups []float64
	for i := 0; i < 5; i++ {
		settle()
		t0 := time.Now()
		b.rows = tablesInputs(seed)
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.setN("setup_s", median(setups), len(setups))

	moves, err := b.check(r, experiments)
	if err != nil {
		return nil, err
	}
	r.set("moves", float64(moves))
	settle()

	if !trace {
		// Every pass runs the same jobs, so the median pass is the
		// throughput and latency of a typical pass; a slow spell of the
		// shared host moves only the passes it covers.
		jobs, _, walls := b.timed(r, seconds, nil)
		perPass := float64(jobs) / float64(len(walls))
		r.setN("funcs_per_s", perPass/median(walls)*1000, len(walls))
		r.setN("req_per_s", 1000/median(walls), len(walls))
		r.setN("latency_p50_ms", median(walls), len(walls))
		r.setN("latency_p99_ms", percentile(walls, 0.99), len(walls))
		r.set("peak_rss_mb", peakRSSMB())
		return r, nil
	}

	// Traced run: an untraced half for the overhead baseline, then a
	// traced half that the per-layer table is computed from.
	untracedJobs, untracedElapsed, _ := b.timed(r, seconds/2, nil)
	tt := &tablesTrace{clk: clock{time.Now()}, reg: metrics.New()}
	before := readGlobal()
	jobs, elapsed, _ := b.timed(r, seconds/2, tt)
	after := readGlobal()
	ssaNS, err := calibrateSSA(b.rows)
	if err != nil {
		return nil, err
	}

	var spans []span
	var snapNS, ssaSum, passSum int64
	passNS := map[string]int64{}
	for _, j := range tt.jobs {
		j.ssaNS = ssaNS[j.master]
		snapNS += j.snapEnd - j.snapStart
		ssaSum += j.ssaNS
		for i, p := range j.passNames {
			passNS[p] += j.passWalls[i]
			passSum += j.passWalls[i]
		}
		spans = append(spans, j.spans()...)
	}
	if err := checkSpans(spans, ""); err != nil {
		r.attempted++
		r.fail("span tree: %v", err)
	}
	snap := tt.reg.Snapshot()
	jobWall, _ := histSum(snap, pipeline.MetricBatchJobWallNS, nil)
	ops := float64(jobs)
	setPassMetrics(r, passNS, ops)
	r.set("ssa.build_ms", float64(ssaSum)/1e6/ops)
	r.set("ir.snapshot_ms", float64(snapNS)/1e6/ops)
	r.set("pipeline.unattributed_share", ratio(float64(jobWall-snapNS-ssaSum-passSum), float64(jobWall)))
	r.set("batch.idle_share", 1-ratio(float64(jobWall), float64(batchWorkers)*float64(tt.batchWall.Nanoseconds())))
	setCounterMetrics(r, snap, nil, ops)
	after.report(r, before, ops)
	bypass(r, serverLayerNames...)
	r.set("trace.overhead_share", overhead(float64(untracedJobs)/untracedElapsed.Seconds(), ops/elapsed.Seconds()))
	return r, writeSpans(spanPath(outDir, "tables", seed), spans)
}
