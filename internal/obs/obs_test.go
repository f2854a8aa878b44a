package obs_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"outofssa/internal/obs"
)

func TestCountersFlattening(t *testing.T) {
	type inner struct {
		Hits   int64
		Misses int64
	}
	type stats struct {
		Count   int
		Flag    bool
		Name    string // non-integer: skipped
		Nested  inner
		Pointer *inner
		hidden  int
	}
	got := obs.Counters("p", &stats{
		Count:   3,
		Flag:    true,
		Name:    "x",
		Nested:  inner{Hits: 7, Misses: 1},
		Pointer: &inner{Hits: 9},
		hidden:  5,
	})
	want := map[string]int64{
		"p.Count":          3,
		"p.Flag":           1,
		"p.Nested.Hits":    7,
		"p.Nested.Misses":  1,
		"p.Pointer.Hits":   9,
		"p.Pointer.Misses": 0,
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %d, want %d", k, got[k], v)
		}
	}
}

func TestCountersNilSafety(t *testing.T) {
	if got := obs.Counters("p", nil); got != nil {
		t.Fatalf("Counters(nil) = %v", got)
	}
	var sp *struct{ N int }
	if got := obs.Counters("p", sp); got != nil {
		t.Fatalf("Counters(nil ptr) = %v", got)
	}
	if got := obs.Counters("p", 42); got != nil {
		t.Fatalf("Counters(non-struct) = %v", got)
	}
}

func TestMultiFiltersNil(t *testing.T) {
	if obs.Multi() != nil {
		t.Fatal("Multi() should be nil")
	}
	if obs.Multi(nil, nil) != nil {
		t.Fatal("Multi(nil, nil) should be nil")
	}
	rec := &obs.Recorder{}
	if got := obs.Multi(nil, rec); got != obs.Tracer(rec) {
		t.Fatalf("Multi(nil, rec) = %T, want the recorder itself", got)
	}
	// Two live tracers: both must receive every event.
	r1, r2 := &obs.Recorder{}, &obs.Recorder{}
	m := obs.Multi(r1, r2)
	m.RunStart("f", "c", obs.IRStat{})
	m.PassStart("f", "c", "p")
	m.PassEnd(&obs.Event{Func: "f", Config: "c", Pass: "p"})
	m.RunEnd("f", "c", obs.IRStat{}, 1)
	for i, r := range []*obs.Recorder{r1, r2} {
		if len(r.Runs) != 1 || !r.Runs[0].Ended || len(r.Runs[0].Events) != 1 {
			t.Fatalf("tracer %d missed events: %+v", i, r.Runs)
		}
	}
}

func TestSummaryRendersTable(t *testing.T) {
	var buf bytes.Buffer
	s := obs.NewSummary(&buf)
	s.Verbose = true
	s.RunStart("fir", "Lphi+C", obs.IRStat{Moves: 5})
	s.PassStart("fir", "Lphi+C", "ssaopt")
	s.PassEnd(&obs.Event{
		Func: "fir", Config: "Lphi+C", Pass: "ssaopt",
		WallNS:   1500,
		Before:   obs.IRStat{Moves: 5, Instrs: 30, Phis: 2},
		After:    obs.IRStat{Moves: 3, Instrs: 28, Phis: 2},
		Counters: map[string]int64{"ssaopt.Rounds": 2},
	})
	s.RunEnd("fir", "Lphi+C", obs.IRStat{Moves: 3}, 2000)
	out := buf.String()
	for _, want := range []string{"fir [Lphi+C]", "ssaopt", "-2", "ssaopt.Rounds"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := obs.NewJSONL(&buf)
	j.RunStart("f", "c", obs.IRStat{Moves: 1})
	j.PassEnd(&obs.Event{Func: "f", Config: "c", Pass: "p", Seq: 0,
		Counters: map[string]int64{"p.N": 4}})
	j.RunEnd("f", "c", obs.IRStat{}, 10)
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("want 3 lines, got %d:\n%s", len(lines), buf.String())
	}
	types := []string{"run_start", "pass", "run_end"}
	for i, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if rec["type"] != types[i] {
			t.Fatalf("line %d: type %v, want %s", i, rec["type"], types[i])
		}
	}
	var pass struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(lines[1], &pass); err != nil {
		t.Fatal(err)
	}
	if pass.Counters["p.N"] != 4 {
		t.Fatalf("counters did not round-trip: %v", pass.Counters)
	}
}

func TestNopDiscards(t *testing.T) {
	// Must simply not panic.
	obs.Nop.RunStart("f", "c", obs.IRStat{})
	obs.Nop.PassStart("f", "c", "p")
	obs.Nop.PassEnd(&obs.Event{})
	obs.Nop.RunEnd("f", "c", obs.IRStat{}, 0)
}
