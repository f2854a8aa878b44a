package obs

import (
	"fmt"
	"io"
	"time"
)

// Summary is a Tracer rendering one human-readable per-pass table per
// run: wall time and the move/instruction/φ/pin deltas each pass
// caused. Attach it with laoc -trace.
type Summary struct {
	w io.Writer
	// Verbose additionally prints the pass-specific counters under each
	// run's table.
	Verbose bool

	events []*Event
}

// NewSummary returns a summary sink writing to w.
func NewSummary(w io.Writer) *Summary { return &Summary{w: w} }

func (s *Summary) RunStart(fn, config string, before IRStat) { s.events = s.events[:0] }

func (s *Summary) PassStart(fn, config, pass string) {}

func (s *Summary) PassEnd(ev *Event) { s.events = append(s.events, ev) }

func (s *Summary) RunEnd(fn, config string, after IRStat, wallNS int64) {
	label := fn
	if config != "" {
		label += " [" + config + "]"
	}
	fmt.Fprintf(s.w, "; trace %s: %d passes, %v total\n",
		label, len(s.events), time.Duration(wallNS).Round(time.Microsecond))
	fmt.Fprintf(s.w, ";   %-18s %10s %7s %7s %7s %7s %6s %6s\n",
		"pass", "wall", "moves", "Δmoves", "instrs", "Δinstr", "phis", "pins")
	for _, ev := range s.events {
		fmt.Fprintf(s.w, ";   %-18s %10v %7d %+7d %7d %+7d %6d %6d\n",
			ev.Pass,
			time.Duration(ev.WallNS).Round(time.Microsecond),
			ev.After.Moves, ev.After.Moves-ev.Before.Moves,
			ev.After.Instrs, ev.After.Instrs-ev.Before.Instrs,
			ev.After.Phis, ev.After.Pins)
	}
	if s.Verbose {
		for _, ev := range s.events {
			if len(ev.Counters) == 0 {
				continue
			}
			for _, k := range SortedKeys(ev.Counters) {
				fmt.Fprintf(s.w, ";     %-40s %10d\n", k, ev.Counters[k])
			}
		}
	}
}
