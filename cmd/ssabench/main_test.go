package main

import (
	"bytes"
	"strings"
	"testing"

	"outofssa/internal/obs/metrics"
	"outofssa/internal/pipeline"
	"outofssa/internal/testprog"
)

// TestCounterDumpDeterministic pins the emission-order contract of the
// -trace-counters dump: identical workloads must produce byte-identical
// output across repeated runs, regardless of Go's map iteration order
// and of the order the registry cells were created in. This is what
// makes -trace-counters output diffable between CI runs.
func TestCounterDumpDeterministic(t *testing.T) {
	run := func() []byte {
		reg := metrics.New()
		withMetrics := pipeline.WithMetrics(reg)
		conf, err := pipeline.Preset(pipeline.ExpLphiABIC)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range testprog.All() {
			if _, err := pipeline.Run(f, conf,
				pipeline.WithExperiment(pipeline.ExpLphiABIC), withMetrics); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		dumpCounters(&buf, reg.Snapshot())
		return buf.Bytes()
	}
	first := run()
	if len(first) == 0 {
		t.Fatal("dump produced no counters")
	}
	for i := 0; i < 5; i++ {
		if got := run(); !bytes.Equal(first, got) {
			t.Fatalf("run %d dump differs from first:\n--- first ---\n%s--- got ---\n%s", i+2, first, got)
		}
	}
	// Sorted-order spot check: the dump must be line-sorted by key.
	lines := strings.Split(strings.TrimRight(string(first), "\n"), "\n")
	for i := 1; i < len(lines); i++ {
		if lines[i-1] > lines[i] {
			t.Fatalf("dump not sorted at line %d:\n%s\n%s", i, lines[i-1], lines[i])
		}
	}
}
