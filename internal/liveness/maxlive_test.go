package liveness_test

import (
	"testing"

	"outofssa/internal/ir"
	"outofssa/internal/liveness"
	"outofssa/internal/ssa"
	"outofssa/internal/testprog"
)

// TestMaxLiveKnownValues pins MAXLIVE on programs small enough to count
// by hand.
func TestMaxLiveKnownValues(t *testing.T) {
	// Straight line: a, b live together between the input and the add,
	// then only c. MAXLIVE = 2.
	bld := ir.NewBuilder("straight")
	entry := bld.Block("entry")
	a, b, c := bld.Val("a"), bld.Val("b"), bld.Val("c")
	bld.SetBlock(entry)
	bld.Input(a, b)
	bld.Binary(ir.Add, c, a, b)
	bld.Output(c)
	f := bld.Fn
	if got := liveness.MaxLive(f, liveness.Compute(f)); got != 2 {
		t.Fatalf("straight-line MAXLIVE = %d, want 2", got)
	}

	// The loop program in SSA form: pressure peaks at the head's branch
	// point with n, the φ'd counter and accumulator, the loop-invariant
	// constant `one`, and the comparison result all in flight.
	g := testprog.Loop()
	ssa.MustBuild(g)
	got := liveness.MaxLive(g, liveness.Compute(g))
	if got != 5 {
		t.Fatalf("loop MAXLIVE = %d, want 5", got)
	}
}

// TestMaxLiveMatchesLiveAfter: MAXLIVE is the largest live set at any
// program point, so it must equal the maximum LiveAfter size over every
// instruction boundary (index -1 is the point just after the φ prefix),
// on every shared test program and a pile of random ones.
func TestMaxLiveMatchesLiveAfter(t *testing.T) {
	funcs := testprog.All()
	for seed := int64(0); seed < 20; seed++ {
		funcs = append(funcs, testprog.Rand(seed, testprog.DefaultRandOptions()))
	}
	for _, f := range funcs {
		ssa.MustBuild(f)
		live := liveness.Compute(f)
		want := 0
		for _, b := range f.Blocks() {
			for i := -1; i < b.NumInstrs(); i++ {
				if n := live.LiveAfter(b, i).Len(); n > want {
					want = n
				}
			}
		}
		if got := liveness.MaxLive(f, live); got != want {
			t.Fatalf("%s: MAXLIVE = %d, max LiveAfter size %d", f.Name, got, want)
		}
		if want <= 0 {
			t.Fatalf("%s: MAXLIVE = %d, want positive", f.Name, want)
		}
	}
}
