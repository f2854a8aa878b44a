package interference_test

import (
	"fmt"
	"testing"

	"outofssa/internal/cfg"
	"outofssa/internal/interference"
	"outofssa/internal/ir"
	"outofssa/internal/liveness"
	"outofssa/internal/pin"
	"outofssa/internal/ssa"
	"outofssa/internal/stats"
	"outofssa/internal/testprog"
)

// crossCheckEngines builds two resource graphs over the same function,
// pins and resource classes — one answering every class with the
// dominance sweep (cutoff 0, so small classes are swept too), one
// answering everything with the pairwise oracle — and requires
// bit-for-bit identical Resource_killed sets and Resource_interfere
// verdicts, both on the initial classes and again after a round of
// φ-affinity merges (which exercises multi-member classes, the
// generation-keyed memo invalidation, and the merged-class sweep paths).
func crossCheckEngines(t *testing.T, f *ir.Func, mode interference.Mode) {
	t.Helper()
	cfg.SplitCriticalEdges(f)
	res, err := pin.NewResources(f)
	if err != nil {
		t.Fatalf("NewResources: %v", err)
	}
	live := liveness.Compute(f)
	dom := cfg.Dominators(f)
	an := interference.New(f, live, dom, mode)
	restore := interference.SetSweepCutoff(0)
	gD := interference.NewResourceGraph(an, res)
	interference.SetSweepCutoff(interference.PairwiseEverywhere)
	gP := interference.NewResourceGraph(an, res)
	restore()

	roots := func() []ir.ValueID {
		seen := make(map[ir.ValueID]bool)
		var out []ir.ValueID
		for id := 0; id < f.NumValues(); id++ {
			r := res.Find(ir.ValueID(id))
			if !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
		return out
	}
	check := func(stage string) {
		rs := roots()
		for _, r := range rs {
			kd, kp := gD.KilledSet(r), gP.KilledSet(r)
			if !kd.Equal(kp) {
				t.Fatalf("%s: %s: Resource_killed(%v) diverges:\n dominance %v\n pairwise  %v",
					stage, f.Name, f.VStr(r), kd.Elems(), kp.Elems())
			}
		}
		for i := 0; i < len(rs); i++ {
			for j := i + 1; j < len(rs); j++ {
				vd := gD.Interfere(rs[i], rs[j])
				vp := gP.Interfere(rs[i], rs[j])
				if vd != vp {
					t.Fatalf("%s: %s: Resource_interfere(%v, %v): dominance=%v pairwise=%v",
						stage, f.Name, rs[i], rs[j], vd, vp)
				}
			}
		}
	}

	check("initial")

	// Merge a handful of non-interfering φ-affine classes — the same
	// unions the coalescer's residual sweep would perform — and
	// re-check on the grown classes.
	merges := 0
	for _, b := range f.Blocks() {
		for _, phi := range b.Phis() {
			for _, u := range phi.Uses() {
				a, x := res.Find(u.Val), res.Find(phi.Def(0))
				if a == x {
					continue
				}
				vd, vp := gD.Interfere(a, x), gP.Interfere(a, x)
				if vd != vp {
					t.Fatalf("merge probe: %s: Resource_interfere(%v, %v): dominance=%v pairwise=%v",
						f.Name, a, x, vd, vp)
				}
				if vd {
					continue
				}
				if _, err := res.Union(a, x); err == nil {
					merges++
				}
				if merges >= 8 {
					break
				}
			}
		}
	}
	check("after merges")
}

// pinnedRand generates a random structured program, converts it to SSA
// and applies the real pin-collect phases (SP ties, ABI slots), so the
// classes and pin sites the engines see match the production pipeline.
func pinnedRand(t *testing.T, seed int64, opt testprog.RandOptions) *ir.Func {
	t.Helper()
	f := testprog.Rand(seed, opt)
	info, err := ssa.Build(f)
	if err != nil {
		t.Fatalf("ssa.Build(seed %d): %v", seed, err)
	}
	pin.CollectSP(f, info)
	pin.CollectABI(f)
	return f
}

var allModes = []interference.Mode{interference.Exact, interference.Optimistic, interference.Pessimistic}

// TestEnginesAgreeOnRandomFunctions is the property test: over random
// pinned-SSA functions, for all three modes, the dominance sweep and the
// pairwise oracle must agree exactly.
func TestEnginesAgreeOnRandomFunctions(t *testing.T) {
	for _, mode := range allModes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			for seed := int64(0); seed < 40; seed++ {
				crossCheckEngines(t, pinnedRand(t, seed, testprog.DefaultRandOptions()), mode)
			}
		})
	}
}

// TestEnginesAgreeOnSuites cross-checks on the deterministic test
// programs, which carry hand-built corner cases (lost copy, swap).
func TestEnginesAgreeOnSuites(t *testing.T) {
	builders := []func() *ir.Func{
		testprog.Diamond, testprog.Loop, testprog.SwapLoop, testprog.NestedLoops,
	}
	for _, mode := range allModes {
		for i, mk := range builders {
			f := mk()
			if _, err := ssa.Build(f); err != nil {
				t.Fatalf("builder %d: %v", i, err)
			}
			crossCheckEngines(t, f, mode)
		}
	}
}

// TestPairwiseOracleTable2 regenerates Table 2 with the size-adaptive
// dispatch the pipeline uses and again with the pairwise oracle
// answering every class, and requires byte-identical tables: the
// cross-check above, end to end over the paper's workload. It runs the
// batch serially and not in parallel with other tests, because the
// cutoff it moves is package-wide.
func TestPairwiseOracleTable2(t *testing.T) {
	prev := stats.Parallel
	stats.Parallel = 1
	defer func() { stats.Parallel = prev }()
	want, err := stats.Table2()
	if err != nil {
		t.Fatalf("Table 2: %v", err)
	}
	defer interference.SetSweepCutoff(interference.PairwiseEverywhere)()
	got, err := stats.Table2()
	if err != nil {
		t.Fatalf("Table 2, pairwise everywhere: %v", err)
	}
	if got.String() != want.String() {
		t.Fatalf("Table 2 diverges under the pairwise oracle:\n--- default\n%s\n--- pairwise\n%s", want, got)
	}
}

// fuzzEngineOptions maps the fuzzed size to generator knobs, mirroring
// the pipeline differential fuzzer so crashers transfer between the two
// corpora.
func fuzzEngineOptions(size int64) testprog.RandOptions {
	if size < 0 {
		size = -size
	}
	return testprog.RandOptions{
		MaxDepth:      int(1 + size%3),
		Vars:          int(3 + (size/3)%5),
		StmtsPerBlock: int(1 + (size/18)%5),
		Calls:         size%2 == 0,
		Stack:         (size/2)%2 == 0,
	}
}

// FuzzInterferenceEngines fuzzes the dominance sweep against the
// pairwise oracle over random functions and all three modes.
func FuzzInterferenceEngines(f *testing.F) {
	f.Add(int64(0), int64(0))
	f.Add(int64(1), int64(17))
	f.Add(int64(7), int64(36))
	f.Add(int64(42), int64(5))
	f.Add(int64(1002), int64(90))
	f.Fuzz(func(t *testing.T, seed, size int64) {
		opt := fuzzEngineOptions(size)
		for _, mode := range allModes {
			fn := pinnedRand(t, seed, opt)
			fn.Name = fmt.Sprintf("%s-%s", fn.Name, mode)
			crossCheckEngines(t, fn, mode)
		}
	})
}
