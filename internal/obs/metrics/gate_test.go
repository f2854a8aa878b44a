package metrics

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"outofssa/internal/obs"
)

func gateRegistry() *Registry {
	r := New()
	r.Counter("laoc_g_kills_total", L("engine", "dominance")).Add(355540)
	r.Counter("laoc_g_runs_total").Add(1068)
	w := r.Histogram("laoc_g_pass_wall_ns", L("pass", "out-leung"))
	for _, v := range []int64{1000, 2000, 4000} {
		w.Observe(v)
	}
	m := r.Histogram("laoc_g_maxlive")
	m.SetDeterministic()
	for _, v := range []int64{3, 5, 5, 9} {
		m.Observe(v)
	}
	return r
}

func fileSnap(r *Registry) *FileSnapshot {
	return r.Snapshot().File(obs.HostInfo())
}

func TestGatePassesOnIdenticalRun(t *testing.T) {
	problems, notes := Gate(fileSnap(gateRegistry()), fileSnap(gateRegistry()), GateOptions{WallTolerance: 0.3})
	if len(problems) != 0 {
		t.Fatalf("identical runs gated: %v", problems)
	}
	if len(notes) == 0 || !strings.Contains(notes[0], "wall check") {
		t.Fatalf("expected a wall-check note, got %v", notes)
	}
}

func TestGateFailsOnCounterDrift(t *testing.T) {
	base := fileSnap(gateRegistry())
	cur := gateRegistry()
	cur.Counter("laoc_g_kills_total", L("engine", "dominance")).Inc()
	problems, _ := Gate(base, fileSnap(cur), GateOptions{WallTolerance: -1})
	if len(problems) != 1 || !strings.Contains(problems[0], "laoc_g_kills_total") {
		t.Fatalf("counter drift not caught: %v", problems)
	}
}

func TestGateFailsOnMissingAndCountDrift(t *testing.T) {
	base := fileSnap(gateRegistry())
	cur := gateRegistry()
	cur.Histogram("laoc_g_pass_wall_ns", L("pass", "out-leung")).Observe(8000) // count 3 -> 4
	snap := fileSnap(cur)
	// Drop a counter entirely.
	var kept []FileCounter
	for _, c := range snap.Counters {
		if c.Name != "laoc_g_runs_total" {
			kept = append(kept, c)
		}
	}
	snap.Counters = kept
	problems, _ := Gate(base, snap, GateOptions{WallTolerance: -1})
	if len(problems) != 2 {
		t.Fatalf("want 2 problems (missing counter, observation drift), got %v", problems)
	}
}

// TestGateDeterministicHistogramExact: a deterministic histogram with
// the same observation count but different values must fail; a
// non-deterministic one (wall time) must not.
func TestGateDeterministicHistogramExact(t *testing.T) {
	base := fileSnap(gateRegistry())

	cur := New()
	cur.Counter("laoc_g_kills_total", L("engine", "dominance")).Add(355540)
	cur.Counter("laoc_g_runs_total").Add(1068)
	w := cur.Histogram("laoc_g_pass_wall_ns", L("pass", "out-leung"))
	for _, v := range []int64{1500, 2500, 3500} { // same count, different wall
		w.Observe(v)
	}
	m := cur.Histogram("laoc_g_maxlive")
	m.SetDeterministic()
	for _, v := range []int64{3, 5, 5, 11} { // same count, different MAXLIVE
		m.Observe(v)
	}
	problems, _ := Gate(base, fileSnap(cur), GateOptions{WallTolerance: -1})
	if len(problems) != 1 || !strings.Contains(problems[0], "laoc_g_maxlive") {
		t.Fatalf("want exactly the deterministic-histogram failure, got %v", problems)
	}
}

func TestGateWallToleranceAndHostGating(t *testing.T) {
	base := fileSnap(gateRegistry())
	cur := gateRegistry()
	cur.Histogram("laoc_g_pass_wall_ns", L("pass", "out-leung")).Observe(1 << 40)
	curSnap := fileSnap(cur)
	// Hide the extra observation from the count check to isolate the
	// wall check (count drift is tested elsewhere).
	for i := range curSnap.Histograms {
		if curSnap.Histograms[i].Name == "laoc_g_pass_wall_ns" {
			curSnap.Histograms[i].Count = 3
		}
	}

	problems, _ := Gate(base, curSnap, GateOptions{WallTolerance: 0.3})
	if len(problems) != 1 || !strings.Contains(problems[0], "wall regression") {
		t.Fatalf("same-host wall regression not caught: %v", problems)
	}

	// Same regression from a different host: skipped with a note...
	foreign := *curSnap
	foreign.Host = obs.Host{GOOS: "plan9", GOARCH: "riscv64", CPU: "other", Cores: 64, GOMAXPROCS: 64}
	problems, notes := Gate(base, &foreign, GateOptions{WallTolerance: 0.3})
	if len(problems) != 0 {
		t.Fatalf("cross-host wall compared without ForceWall: %v", problems)
	}
	found := false
	for _, n := range notes {
		found = found || strings.Contains(n, "hosts differ")
	}
	if !found {
		t.Fatalf("no hosts-differ note: %v", notes)
	}
	// ...unless forced.
	problems, _ = Gate(base, &foreign, GateOptions{WallTolerance: 0.3, ForceWall: true})
	if len(problems) != 1 {
		t.Fatalf("ForceWall did not compare wall: %v", problems)
	}
}

// TestGateAppendOnly: metrics present only in the current snapshot are
// not regressions — new instrumentation must not invalidate committed
// baselines.
func TestGateAppendOnly(t *testing.T) {
	base := fileSnap(gateRegistry())
	cur := gateRegistry()
	cur.Counter("laoc_g_new_total").Add(7)
	cur.Histogram("laoc_g_new_ns").Observe(1)
	problems, _ := Gate(base, fileSnap(cur), GateOptions{WallTolerance: 0.3})
	if len(problems) != 0 {
		t.Fatalf("current-only metrics flagged: %v", problems)
	}
}

func TestFileSnapshotRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	host := obs.HostInfo()
	if err := WriteJSON(&buf, gateRegistry().Snapshot(), host); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := gateRegistry().Snapshot().File(host)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip drifted:\n%+v\n%+v", got, want)
	}

	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"laoc-metrics-v0"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(bad); err == nil {
		t.Fatalf("wrong schema accepted")
	}
}
