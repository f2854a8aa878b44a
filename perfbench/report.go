package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"outofssa/internal/obs"
)

// metric is one reported number. Samples is the count behind a
// percentile or median (0 where the value is a single measurement); it
// goes to the human report and the report file, not the result line.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is what one run of one workload produced: operation counts
// for the error rate, the metrics, and the reasons for any failure.
type result struct {
	attempted, failed int
	// noVerdict counts (job, argument vector) pairs on which the
	// reference ran over its ir.Exec budget, so the semantic check said
	// nothing; they are neither passes nor failures.
	noVerdict int
	metrics   map[string]metric
	failures  []string
}

func newResult() *result { return &result{metrics: map[string]metric{}} }

func (r *result) set(name string, v float64) { r.setN(name, v, 0) }

// setN records a metric with the sample count behind it; the unit
// comes from the metric's definition.
func (r *result) setN(name string, v float64, samples int) {
	unit, ok := units[name]
	if !ok {
		panic("perfbench: undefined metric " + name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// fail records one failed operation and why. Only the first few
// reasons are kept; the count is exact.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) errorRate() float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}

// median returns the middle of xs (mean of the two middles for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile of xs (0 < q <= 1).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, or 0 when there is nothing to divide by (a layer the
// workload bypasses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// settle collects the garbage of the phase before, so each set-up and
// timed phase starts from the same heap state rather than wherever the
// collector's pacing left it.
func settle() { runtime.GC() }

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// runInfo identifies a run in its report.
type runInfo struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   int      `json:"seconds"`
	Trace     bool     `json:"trace"`
	Host      obs.Host `json:"host"`
	GoVersion string   `json:"go_version"`
}

func newRunInfo(workload string, seed int64, seconds int, trace bool) runInfo {
	return runInfo{Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		Host: obs.HostInfo(), GoVersion: runtime.Version()}
}

// printHuman writes the readable report: host block, every metric with
// its unit and sample count, and the error rate.
func printHuman(w io.Writer, info runInfo, r *result) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%v\n", info.Workload, info.Seed, info.Seconds, info.Trace)
	fmt.Fprintf(w, "host: %s go=%s\n", info.Host, info.GoVersion)
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(w, "  %-30s %16.6f %-8s", n, m.Value, m.Unit)
		if m.Samples > 0 {
			fmt.Fprintf(w, " n=%d", m.Samples)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  %-30s %16.6f %-8s %d of %d failed", "error_rate", r.errorRate(), "ratio", r.failed, r.attempted)
	if r.noVerdict > 0 {
		fmt.Fprintf(w, ", %d exec checks without verdict", r.noVerdict)
	}
	fmt.Fprintln(w)
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
}

// resultLine is the machine-read last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// writeResultLine prints the one-line JSON result: only the metrics
// in keep, each with value and unit.
func writeResultLine(w io.Writer, r *result, keep []def) error {
	line := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metric, len(keep))}
	for _, d := range keep {
		m, ok := r.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		line.Metrics[d.name] = metric{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// writeReportFile stores the full report (host block, Go version,
// every metric with its sample count, failures) under dir.
func writeReportFile(dir string, info runInfo, r *result) (string, error) {
	rep := struct {
		runInfo
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		ErrorRate float64           `json:"error_rate"`
		NoVerdict int               `json:"no_verdict"`
		Metrics   map[string]metric `json:"metrics"`
		Failures  []string          `json:"failures,omitempty"`
	}{info, r.attempted, r.failed, r.errorRate(), r.noVerdict, r.metrics, r.failures}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("report-%s-seed%d-trace%d.json", info.Workload, info.Seed, b2i(info.Trace)))
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
