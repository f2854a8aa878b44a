package faultinject_test

import (
	"testing"

	"outofssa/internal/faultinject"
	"outofssa/internal/ir"
	"outofssa/internal/pipeline"
	"outofssa/internal/testprog"
)

// TestInjectCOWAliasingHoldsOnHealthyIR: the probe passes on every
// fixture shape (pre-SSA, SSA, post-pipeline would-be inputs) and
// leaves the probed function byte-identical, frozen, and still
// mutable afterwards.
func TestInjectCOWAliasingHoldsOnHealthyIR(t *testing.T) {
	f := buildDiamond(t) // already in pruned SSA form
	want := f.String()
	if err := faultinject.InjectCOWAliasing(f); err != nil {
		t.Fatalf("probe failed on healthy IR: %v", err)
	}
	if got := f.String(); got != want {
		t.Fatalf("probe changed the probed function:\n%s", got)
	}
	if !f.Frozen() {
		t.Fatal("probe must leave f frozen (its snapshots shared the slabs)")
	}
	// The throwaway snapshots were released, so f's next mutation must
	// re-privatize by adoption — no slab copy.
	before := ir.Stats()
	in := f.Entry().Instr(0)
	if in.NumDefs() > 0 {
		in.SetDefVal(0, in.Def(0))
	}
	d := ir.Stats()
	if n := d.COWSlabCopies - before.COWSlabCopies; n != 0 {
		t.Fatalf("post-probe mutation copied %d slabs, want adoption (0)", n)
	}
}

// TestCheckedModeRunsNoCOWProbe: the probe tests internal/ir, not the
// function being compiled, so checked pipeline runs — every laocd
// request among them — take exactly the snapshots a plain run does.
func TestCheckedModeRunsNoCOWProbe(t *testing.T) {
	conf := pipeline.Configs[pipeline.ExpLphiABIC]

	plain := testprog.Diamond()
	before := ir.Stats()
	if _, err := pipeline.Run(plain, conf); err != nil {
		t.Fatalf("plain run: %v", err)
	}
	plainSnaps := ir.Stats().Snapshots - before.Snapshots

	checked := testprog.Diamond()
	conf.Verify = true
	before = ir.Stats()
	if _, err := pipeline.Run(checked, conf); err != nil {
		t.Fatalf("checked run: %v", err)
	}
	checkedSnaps := ir.Stats().Snapshots - before.Snapshots

	if checkedSnaps != plainSnaps {
		t.Fatalf("checked run took %d snapshots vs %d plain, want the same (no probe pair)", checkedSnaps, plainSnaps)
	}
}
