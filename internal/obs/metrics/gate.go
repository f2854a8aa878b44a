package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// GateOptions configures a baseline-vs-current comparison.
type GateOptions struct {
	// WallTolerance is the allowed relative regression of total wall
	// time (metrics named *_wall_ns): current <= baseline*(1+tol).
	// Negative disables the wall check entirely.
	WallTolerance float64
	// ForceWall compares wall time even when the two snapshots were
	// taken on different hosts. Off by default: cross-host wall numbers
	// are not comparable, so the gate records a note instead of failing.
	ForceWall bool
}

// Gate diffs a current snapshot against a committed baseline and
// returns the regressions (each one line, stable order) plus
// informational notes. An empty problems slice means the gate passes.
//
// The contract, from strictest to loosest:
//
//   - every baseline counter must exist in current with exactly the
//     same value — the repo's headline perf claims are deterministic
//     counter deltas, so any drift is a real behavior change;
//   - every baseline histogram must exist with exactly the same
//     observation count; histograms marked deterministic must also
//     match sum/min/max exactly (e.g. the MAXLIVE distribution);
//   - total wall time across *_wall_ns histograms must be within
//     WallTolerance — checked only when both snapshots come from the
//     same host (or ForceWall), because cross-host wall is noise.
//
// Metrics present only in current are allowed (the schema is
// append-only; new instrumentation must not invalidate old baselines).
func Gate(baseline, current *FileSnapshot, o GateOptions) (problems, notes []string) {
	curC := make(map[string]int64, len(current.Counters))
	for _, c := range current.Counters {
		curC[cellKey(c.Name, c.Labels)] = c.Value
	}
	for _, b := range baseline.Counters {
		k := cellKey(b.Name, b.Labels)
		v, ok := curC[k]
		if !ok {
			problems = append(problems, fmt.Sprintf("counter %s: missing from current snapshot (baseline %d)", k, b.Value))
			continue
		}
		if v != b.Value {
			problems = append(problems, fmt.Sprintf("counter %s: %d, baseline %d (%+d)", k, v, b.Value, v-b.Value))
		}
	}

	curH := make(map[string]*FileHistogram, len(current.Histograms))
	for i := range current.Histograms {
		h := &current.Histograms[i]
		curH[cellKey(h.Name, h.Labels)] = h
	}
	var baseWall, curWall int64
	for i := range baseline.Histograms {
		b := &baseline.Histograms[i]
		k := cellKey(b.Name, b.Labels)
		h, ok := curH[k]
		if !ok {
			problems = append(problems, fmt.Sprintf("histogram %s: missing from current snapshot", k))
			continue
		}
		if h.Count != b.Count {
			problems = append(problems, fmt.Sprintf("histogram %s: %d observations, baseline %d", k, h.Count, b.Count))
		}
		if b.Deterministic {
			if h.Sum != b.Sum || h.Min != b.Min || h.Max != b.Max {
				problems = append(problems, fmt.Sprintf(
					"histogram %s (deterministic): sum/min/max %d/%d/%d, baseline %d/%d/%d",
					k, h.Sum, h.Min, h.Max, b.Sum, b.Min, b.Max))
			}
		}
		if strings.HasSuffix(b.Name, "_wall_ns") {
			baseWall += b.Sum
			curWall += h.Sum
		}
	}

	switch {
	case o.WallTolerance < 0 || baseWall == 0:
		notes = append(notes, "wall check: disabled")
	case !baseline.Host.Equal(current.Host) && !o.ForceWall:
		notes = append(notes, fmt.Sprintf("wall check: skipped, hosts differ (baseline %s; current %s)",
			baseline.Host, current.Host))
	default:
		limit := float64(baseWall) * (1 + o.WallTolerance)
		note := fmt.Sprintf("wall check: current %dns vs baseline %dns (limit %.0fns, tolerance %.0f%%)",
			curWall, baseWall, limit, o.WallTolerance*100)
		if float64(curWall) > limit {
			problems = append(problems, "wall regression: "+note)
		} else {
			notes = append(notes, note)
		}
	}
	sort.Strings(problems)
	return problems, notes
}

func cellKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}
