// Command laoc is a miniature Linear Assembly Optimizer driver: it
// parses LAI text, converts to pruned SSA, optimizes, translates out of
// SSA with a selectable algorithm, and prints the final code and move
// statistics.
//
// Usage:
//
//	laoc [-exp Lphi,ABI+C] [-verify] [-fallback] [-dump-ssa] [-run a,b,c] [-trace] [-trace-json FILE] [-metrics-addr HOST:PORT] file.lai
//	laoc -list-exps
//
// With no file, laoc reads LAI from standard input. With -run, laoc
// interprets the function before and after the pipeline and exits
// non-zero if the results differ, so CI can gate on semantic
// preservation. -trace prints a per-pass wall-time/allocation/IR-delta
// table for every function; -trace-json streams the same events as
// JSONL for machine diffing (see DESIGN.md for the schema).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"outofssa/internal/ir"
	"outofssa/internal/lai"
	"outofssa/internal/obs"
	"outofssa/internal/obs/metrics"
	"outofssa/internal/pipeline"
	"outofssa/internal/ssa"
)

func main() {
	exp := flag.String("exp", pipeline.ExpLphiABIC, "experiment configuration (see -list-exps)")
	listExps := flag.Bool("list-exps", false, "list experiment configurations and exit")
	dumpSSA := flag.Bool("dump-ssa", false, "also print the pinned SSA form")
	runArgs := flag.String("run", "", "comma-separated integer arguments: interpret the result")
	trace := flag.Bool("trace", false, "print a per-pass trace table for every function")
	traceVerbose := flag.Bool("trace-counters", false, "with -trace, also print per-pass counters")
	traceJSON := flag.String("trace-json", "", "write per-pass trace events as JSONL to `file`")
	verifyMode := flag.Bool("verify", false, "checked mode: re-verify IR invariants after every pass")
	fallback := flag.Bool("fallback", false, "on a pass failure, fall back to the naive translation instead of aborting")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics (Prometheus text), /metrics.json and /debug/pprof on `host:port` while compiling, and route run metrics through the registry")
	flag.Parse()

	if *listExps {
		for _, n := range pipeline.Presets() {
			fmt.Println(n)
		}
		return
	}

	conf, err := pipeline.Preset(*exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "laoc: %v (see -list-exps)\n", err)
		os.Exit(2)
	}
	conf.Verify = *verifyMode
	conf.Fallback = *fallback

	var tracers []obs.Tracer
	if *trace {
		s := obs.NewSummary(os.Stdout)
		s.Verbose = *traceVerbose
		tracers = append(tracers, s)
	}
	if *traceJSON != "" {
		w, err := os.Create(*traceJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, "laoc:", err)
			os.Exit(1)
		}
		defer w.Close()
		tracers = append(tracers, obs.NewJSONL(w))
	}
	tracer := obs.Multi(tracers...)

	// -metrics-addr turns the driver into a scrapable process: per-pass
	// histograms and counters accumulate on the default registry and are
	// served live, alongside the pprof endpoints, until exit. reg stays
	// nil otherwise, keeping the pipeline's zero-allocation fast path.
	var reg *metrics.Registry
	if *metricsAddr != "" {
		reg = metrics.Default
		addr, stop, err := metrics.Serve(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "laoc:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "laoc: serving metrics on http://%s/metrics\n", addr)
		defer stop()
	}

	var src []byte
	if flag.NArg() >= 1 {
		src, err = os.ReadFile(flag.Arg(0))
	} else {
		src, err = io.ReadAll(os.Stdin)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "laoc:", err)
		os.Exit(1)
	}

	funcs, err := lai.ParseFile(string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, "laoc:", err)
		os.Exit(1)
	}

	var args []int64
	if *runArgs != "" {
		for _, tok := range strings.Split(*runArgs, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(tok), 0, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "laoc: bad -run argument %q\n", tok)
				os.Exit(2)
			}
			args = append(args, v)
		}
	}

	withMetrics := pipeline.WithMetrics(reg)
	mismatched := false
	for _, f := range funcs {
		var before *ir.ExecResult
		if *runArgs != "" {
			before, err = ir.Exec(f.Clone(), args, 1_000_000)
			if errors.Is(err, ir.ErrStepBudget) {
				// No verdict is possible: the reference itself does not
				// finish. Warn and translate without the semantic gate.
				fmt.Fprintf(os.Stderr, "laoc: %s: pre-pipeline execution exceeded the step budget; skipping -run comparison\n", f.Name)
				before, err = nil, nil
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "laoc: %s: pre-pipeline execution: %v\n", f.Name, err)
				os.Exit(1)
			}
		}

		if *dumpSSA {
			g := f.Clone()
			if _, err := ssa.Build(g); err != nil {
				fmt.Fprintf(os.Stderr, "laoc: %s: %v\n", g.Name, err)
				os.Exit(1)
			}
			fmt.Printf("; ---- %s: pruned SSA ----\n%s\n", g.Name, g)
		}

		res, err := pipeline.Run(f, conf, pipeline.WithExperiment(*exp), pipeline.WithTracer(tracer), withMetrics)
		if err != nil {
			var pe *pipeline.PassError
			if errors.As(err, &pe) {
				fmt.Fprintf(os.Stderr, "laoc: %s: pass %q failed: %v\n", f.Name, pe.Pass, pe.Cause)
				fmt.Fprintf(os.Stderr, "laoc: %s: IR at failure: %d instrs, %d blocks, %d phis, %d pins\n",
					f.Name, pe.Snapshot.Instrs, pe.Snapshot.Blocks, pe.Snapshot.Phis, pe.Snapshot.Pins)
			} else {
				fmt.Fprintf(os.Stderr, "laoc: %s: %v\n", f.Name, err)
			}
			os.Exit(1)
		}
		if res.FellBack {
			fmt.Fprintf(os.Stderr, "laoc: %s: fell back to the naive translation after: %v\n",
				f.Name, res.FallbackFrom)
		}
		fmt.Printf("; ---- %s: final code (%s) ----\n%s", f.Name, *exp, f)
		fmt.Printf("; moves=%d weighted=%d instrs=%d\n", res.Moves, res.WeightedMoves, res.Instrs)
		if res.Leung != nil {
			fmt.Printf("; out-of-pinned-SSA: %d phi move slots, %d pin moves, %d repairs\n",
				res.Leung.PhiMoves, res.Leung.PinMoves, res.Leung.Repairs)
		}
		if res.Coalesce != nil {
			fmt.Printf("; pinning-phi: gain %d of %d slots\n", res.Coalesce.Gain, res.Coalesce.PhiSlots)
		}
		if before != nil {
			// Double the reference budget: the translated code executes
			// extra copies, so a budget overrun here (when the reference
			// finished) means the pipeline broke termination — NONTERM, a
			// mismatch, not a hard driver error.
			after, err := ir.Exec(f, args, 2_000_000)
			if errors.Is(err, ir.ErrStepBudget) {
				mismatched = true
				fmt.Printf("; run(%v) = ? [NONTERM]\n", args)
			} else if err != nil {
				fmt.Fprintf(os.Stderr, "laoc: %s: post-pipeline execution: %v\n", f.Name, err)
				os.Exit(1)
			} else {
				status := "MATCH"
				if !before.Equal(after) {
					status = "MISMATCH"
					mismatched = true
				}
				fmt.Printf("; run(%v) = %v [%s]\n", args, after.Outputs, status)
			}
		}
		fmt.Println()
	}
	if mismatched {
		fmt.Fprintln(os.Stderr, "laoc: semantic mismatch between pre- and post-pipeline execution")
		os.Exit(1)
	}
}
