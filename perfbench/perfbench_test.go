package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"outofssa/internal/obs/metrics"
	"outofssa/internal/pipeline"
	"outofssa/internal/workload"
)

const testExperiments = "../EXPERIMENTS.md"

func TestMeasuredTables(t *testing.T) {
	want, err := measuredTables(testExperiments)
	if err != nil {
		t.Fatal(err)
	}
	if got := want[2]["VALcc1"]; !slices.Equal(got, []int64{48, 51, 48}) {
		t.Errorf("Table 2 VALcc1 = %v, want [48 51 48]", got)
	}
	if got := want[3]["SPECint"][0]; got != 1829 {
		t.Errorf("Table 3 SPECint Lphi,ABI+C = %d, want 1829", got)
	}
	for table := 2; table <= 5; table++ {
		if len(want[table]) != 5 {
			t.Errorf("Table %d has %d rows, want 5", table, len(want[table]))
		}
	}
}

// A table that differs from EXPERIMENTS.md in one cell is one failure.
func TestPerturbedMeasuredCellFails(t *testing.T) {
	want, err := measuredTables(testExperiments)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]map[string][]int64{}
	for table, rows := range want {
		got[table] = map[string][]int64{}
		for name, cells := range rows {
			got[table][name] = slices.Clone(cells)
		}
	}
	r := newResult()
	compareMeasured(r, got, want)
	if r.failed != 0 {
		t.Fatalf("identical tables: %d failures %v", r.failed, r.failures)
	}
	got[4]["LAI_Large"][2]++
	r = newResult()
	compareMeasured(r, got, want)
	if r.failed != 1 || r.errorRate() == 0 {
		t.Fatalf("perturbed cell: failed=%d error_rate=%v, want one failure", r.failed, r.errorRate())
	}
}

// smallTables is the tables workload over the example1-8 suite only,
// with the reference cells taken from one batch per group, so the
// timed path can be driven quickly.
func smallTables(t *testing.T) *tablesBench {
	t.Helper()
	groups, err := tableGroups()
	if err != nil {
		t.Fatal(err)
	}
	ex := workload.Examples()
	for _, f := range ex.Funcs {
		f.Freeze()
	}
	b := &tablesBench{seed: paperSeed, groups: groups, rows: []*workload.Suite{ex}}
	for _, g := range groups {
		res := pipeline.RunBatch(batchJobs(g, ex, plainSnapshot), pipeline.WithParallelism(batchWorkers))
		b.ref = append(b.ref, cells(g, ex, res))
	}
	return b
}

func TestTablesPassMatchesReference(t *testing.T) {
	b := smallTables(t)
	r := newResult()
	n := b.pass(r, nil)
	if n != 16*len(b.rows[0].Funcs) {
		t.Errorf("pass ran %d jobs, want %d", n, 16*len(b.rows[0].Funcs))
	}
	if r.failed != 0 {
		t.Fatalf("pass failed: %v", r.failures)
	}
	// A reference cell that differs from what the pipeline produces
	// raises the error rate.
	b.ref[1][0]++
	r = newResult()
	b.pass(r, nil)
	if r.failed != 1 || r.errorRate() == 0 {
		t.Fatalf("perturbed reference: failed=%d, want 1", r.failed)
	}
}

// The traced pass yields a well-formed span tree: every pass span hangs
// off its job, and all spans of a job share the job's id.
func TestTablesSpanTree(t *testing.T) {
	b := smallTables(t)
	tt := &tablesTrace{clk: clock{time.Now()}, reg: metrics.New()}
	r := newResult()
	b.pass(r, tt)
	if r.failed != 0 {
		t.Fatalf("traced pass failed: %v", r.failures)
	}
	var spans []span
	for _, j := range tt.jobs {
		j.ssaNS = 1000
		spans = append(spans, j.spans()...)
	}
	if err := checkSpans(spans, ""); err != nil {
		t.Fatal(err)
	}
	passes := 0
	for _, s := range spans {
		if strings.HasPrefix(s.Name, passPrefix) {
			passes++
		}
	}
	if passes == 0 {
		t.Fatal("no pass spans recorded")
	}
	bad := slices.Clone(spans)
	for i := range bad {
		if bad[i].Name != spanJob && bad[i].Name != spanSnapshot && bad[i].Name != spanSSA {
			bad[i].Parent = spanSnapshot
			break
		}
	}
	if checkSpans(bad, "") == nil {
		t.Error("a pass span parented to its snapshot passed the check")
	}
	orphan := slices.Clone(spans)
	orphan[1].ID = -1
	if checkSpans(orphan, "") == nil {
		t.Error("a span whose id has no job passed the check")
	}
}

func TestPaperSeedRegeneratesSPECint(t *testing.T) {
	if err := checkPaperSeed(); err != nil {
		t.Fatal(err)
	}
	a, b := specintPopulation(paperSeed), specintPopulation(paperSeed+1)
	same, sizeA, sizeB := 0, 0, 0
	for i := range a.Funcs {
		if a.Funcs[i].String() == b.Funcs[i].String() {
			same++
		}
		sizeA += a.Funcs[i].NumInstrs()
		sizeB += b.Funcs[i].NumInstrs()
	}
	if same != 0 {
		t.Errorf("seeds %d and %d share %d functions", paperSeed, paperSeed+1, same)
	}
	if 20*sizeGapInt(sizeA, sizeB) > sizeA {
		t.Errorf("seed %d population has %d instructions, the paper's %d", paperSeed+1, sizeB, sizeA)
	}
}

func sizeGapInt(a, b int) int {
	if a > b {
		return a - b
	}
	return b - a
}

func testDaemon(t *testing.T) *daemon {
	t.Helper()
	d, err := startDaemon(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := d.stop(); err != nil {
			t.Error(err)
		}
	})
	return d
}

// A served body must equal a local compile byte for byte: flipping one
// byte of a real reply fails the check.
func TestFlippedServedByteFails(t *testing.T) {
	d := testDaemon(t)
	c := newClient(d.url)
	defer c.close()
	for _, b1 := range []bool{false, true} {
		req, err := newRequest(7, streamFunc(3, 7), b1)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.compile(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := checkServed(streamFunc(3, 7), rep.Output); err != nil {
			t.Fatalf("b1=%v: genuine reply rejected: %v", b1, err)
		}
		flipped := []byte(rep.Output)
		flipped[len(flipped)/2] ^= 1
		if _, err := checkServed(streamFunc(3, 7), string(flipped)); err == nil {
			t.Fatalf("b1=%v: reply with a flipped byte passed the check", b1)
		}
	}
}

// A refused request is a failed operation.
func TestRefusedRequestFails(t *testing.T) {
	refuse := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, `{"error":{"kind":"shed"}}`, http.StatusTooManyRequests)
	}))
	defer refuse.Close()
	c := newClient(refuse.URL)
	defer c.close()
	sb := &serveBench{seed: 5}
	st, _, err := drive(c, 200*time.Millisecond, 0, sb.phase(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	r := newResult()
	account(r, st)
	if st.ok != 0 || len(st.failures) == 0 || r.errorRate() != 1 {
		t.Fatalf("ok=%d failed=%d error_rate=%v, want every request failed", st.ok, len(st.failures), r.errorRate())
	}
}

// Against a real server the cold load succeeds, and its spans form a
// tree: request roots, codec spans under the request of the same id.
func TestServeSpans(t *testing.T) {
	d := testDaemon(t)
	c := newClient(d.url)
	defer c.close()
	sb := &serveBench{seed: 9}
	st, next, err := drive(c, 500*time.Millisecond, 0, sb.phase(nil, &clock{time.Now()}))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.failures) != 0 || st.ok == 0 || next != int64(st.ok) {
		t.Fatalf("ok=%d next=%d: %v", st.ok, next, st.failures)
	}
	r := newResult()
	codec, err := timeCodec(r, st.codec)
	if err != nil {
		t.Fatal(err)
	}
	if len(codec) == 0 {
		t.Fatal("no bodies kept for codec timing")
	}
	spans := append(st.spans, codec...)
	if err := checkSpans(spans, codecPrefix); err != nil {
		t.Fatal(err)
	}
	var lost []span
	for _, s := range spans {
		if s.Name != spanRequest || s.ID != codec[0].ID {
			lost = append(lost, s)
		}
	}
	if checkSpans(lost, codecPrefix) == nil {
		t.Error("a codec span without its request passed the check")
	}
}

// BENCHMARK.json lists exactly the metrics the benchmark reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	defs := func(xs []struct{ Name, Unit string }) []def {
		var out []def
		for _, x := range xs {
			out = append(out, def{x.Name, x.Unit})
		}
		return out
	}
	if got := defs(bj.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("end_to_end = %v, benchmark reports %v", got, endToEnd)
	}
	if got := defs(bj.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("per_layer = %v, benchmark reports %v", got, perLayer)
	}
	var workloads []string
	for _, w := range bj.Workloads {
		workloads = append(workloads, w.Name)
	}
	if !slices.Equal(workloads, []string{"tables", "serve-cold", "serve-warm"}) {
		t.Errorf("workloads = %v", workloads)
	}
}
