// Command perfgate is the CI performance-regression gate: it diffs a
// freshly generated metrics snapshot against the committed baseline and
// exits non-zero on regression, turning the repo's benchmark JSONs from
// documentation into an enforced contract.
//
// Usage:
//
//	go run ./cmd/ssabench -table 2 -metrics-out /tmp/current.json
//	go run ./cmd/perfgate -current /tmp/current.json
//
// The contract (metrics.Gate): every baseline counter and histogram
// observation count must match exactly — the headline perf claims of
// this repo are deterministic counter deltas (interference kill-query
// volume, liveness build-vs-revalidate splits, move counts via the
// pass counters), so any drift is a behavior change that must be
// re-baselined deliberately, not absorbed silently. Histograms marked
// deterministic (the MAXLIVE distribution) must match sum/min/max too.
// Total wall time across *_wall_ns histograms may regress up to
// -wall-tolerance, and is compared only when the baseline was recorded
// on the same host (or -force-wall is given) — cross-host wall numbers
// are noise, and the gate says so in a note instead of failing.
//
// Metrics present only in the current snapshot are fine: the snapshot
// schema is append-only, so new instrumentation never invalidates an
// old baseline.
//
// To regenerate the baseline after an intentional perf change:
//
//	go run ./cmd/ssabench -table 2 -verify -metrics-out BENCH_metrics_baseline.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"outofssa/internal/obs/metrics"
)

func main() {
	baseline := flag.String("baseline", "BENCH_metrics_baseline.json", "committed baseline snapshot `file`; empty skips the baseline diff")
	current := flag.String("current", "", "current snapshot `file` (from ssabench -metrics-out or laocd /metrics.json); required")
	wallTol := flag.Float64("wall-tolerance", 0.30, "allowed relative wall-time regression (0.30 = +30%); negative disables the wall check")
	forceWall := flag.Bool("force-wall", false, "compare wall time even when baseline and current hosts differ")
	assert := flag.String("assert", "", "comma-separated counter `invariants` on the current snapshot, e.g. 'laocd_requests_total>=30,laocd_shed_total==0'; families are summed across labels")
	flag.Parse()

	if *current == "" {
		fmt.Fprintln(os.Stderr, "perfgate: -current is required (generate one with ssabench -metrics-out)")
		os.Exit(2)
	}
	cur, err := metrics.ReadFile(*current)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfgate:", err)
		os.Exit(2)
	}

	if *assert != "" {
		failures := runAsserts(cur, *assert)
		for _, f := range failures {
			fmt.Println("FAIL:", f)
		}
		if len(failures) > 0 {
			fmt.Printf("perfgate: %d assertion failure(s) on %s\n", len(failures), *current)
			os.Exit(1)
		}
		fmt.Printf("perfgate: assertions ok on %s\n", *current)
		if *baseline == "" {
			return
		}
	}
	if *baseline == "" {
		fmt.Fprintln(os.Stderr, "perfgate: nothing to do (-baseline empty and no -assert)")
		os.Exit(2)
	}
	base, err := metrics.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfgate:", err)
		os.Exit(2)
	}

	problems, notes := metrics.Gate(base, cur, metrics.GateOptions{
		WallTolerance: *wallTol,
		ForceWall:     *forceWall,
	})
	for _, n := range notes {
		fmt.Println("note:", n)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Println("FAIL:", p)
		}
		fmt.Printf("perfgate: %d regression(s) against %s\n", len(problems), *baseline)
		os.Exit(1)
	}
	fmt.Printf("perfgate: ok — %d counters, %d histograms match %s\n",
		len(base.Counters), len(base.Histograms), *baseline)
}

// runAsserts evaluates a comma-separated list of counter invariants
// ("name>=N", also ==, !=, <=, >, <) against the snapshot. A name
// refers to the whole family: values are summed across label sets, so
// laocd_requests_total>=30 covers every kind label at once. A missing
// family has value 0 — absence is assertable (laocd_worker_panics_total==0
// holds on a snapshot that never registered the counter).
func runAsserts(snap *metrics.FileSnapshot, spec string) []string {
	sums := map[string]int64{}
	for _, c := range snap.Counters {
		sums[c.Name] += c.Value
	}
	var failures []string
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, op, want, err := parseAssert(clause)
		if err != nil {
			failures = append(failures, err.Error())
			continue
		}
		got := sums[name]
		ok := false
		switch op {
		case ">=":
			ok = got >= want
		case "<=":
			ok = got <= want
		case "==":
			ok = got == want
		case "!=":
			ok = got != want
		case ">":
			ok = got > want
		case "<":
			ok = got < want
		}
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: got %d, want %s%d", name, got, op, want))
		}
	}
	return failures
}

func parseAssert(clause string) (name, op string, want int64, err error) {
	// Two-char operators first so ">=" doesn't parse as ">" with a
	// value of "=N".
	for _, o := range []string{">=", "<=", "==", "!="} {
		if i := strings.Index(clause, o); i > 0 {
			name, op = strings.TrimSpace(clause[:i]), o
			want, err = strconv.ParseInt(strings.TrimSpace(clause[i+len(o):]), 10, 64)
			if err != nil {
				err = fmt.Errorf("bad assertion %q: %v", clause, err)
			}
			return
		}
	}
	for _, o := range []string{">", "<"} {
		if i := strings.Index(clause, o); i > 0 {
			name, op = strings.TrimSpace(clause[:i]), o
			want, err = strconv.ParseInt(strings.TrimSpace(clause[i+1:]), 10, 64)
			if err != nil {
				err = fmt.Errorf("bad assertion %q: %v", clause, err)
			}
			return
		}
	}
	return "", "", 0, fmt.Errorf("bad assertion %q: want name<op>value with op in >= <= == != > <", clause)
}
