package verify_test

import (
	"strings"
	"testing"

	"outofssa/internal/ir"
	"outofssa/internal/ssa"
	"outofssa/internal/testprog"
	"outofssa/internal/verify"
)

// straight builds the single-block SSA function
//
//	entry: a, b = input; c = add a, b; output c
//
// and returns it with its values, for rows that add one defect.
func straight() (f *ir.Func, a, b, c ir.ValueID) {
	bld := ir.NewBuilder("straight")
	bld.Block("entry")
	a, b, c = bld.Val("a"), bld.Val("b"), bld.Val("c")
	bld.Input(a, b)
	bld.Binary(ir.Add, c, a, b)
	bld.Output(c)
	return bld.Fn, a, b, c
}

// withParCopy inserts the parallel copy (x, y) = (src0, src1) before
// the entry terminator of straight and returns the function.
func withParCopy(x, y func(a, b, c ir.ValueID) ir.ValueID) *ir.Func {
	f, a, b, c := straight()
	in := f.NewInstr(ir.ParCopy, ir.Ops(x(a, b, c), y(a, b, c)), ir.Ops(a, b))
	f.Entry().InsertBeforeTerminator(in)
	return f
}

// split builds two φs in sibling blocks fed from one predecessor with
// different arguments:
//
//	entry: a, b, c = input; br c -> left, right
//	left:  x = φ(a); output x
//	right: y = φ(b); output y
//
// The φs strongly interfere (paper Class 3: arguments flowing from a
// shared predecessor disagree), so pinning both to one resource is
// illegal even though each block's own pins look fine. pinBoth selects
// that defect; without it only x is pinned, which is legal.
func split(pinBoth bool) *ir.Func {
	bld := ir.NewBuilder("split")
	entry := bld.Block("entry")
	left, right := bld.Fn.NewBlock("left"), bld.Fn.NewBlock("right")
	a, b, c, x, y := bld.Val("a"), bld.Val("b"), bld.Val("c"), bld.Val("x"), bld.Val("y")
	res := bld.Val("res")

	bld.SetBlock(entry)
	bld.Input(a, b, c)
	bld.Br(c, left, right)

	bld.SetBlock(left)
	px := bld.Phi(x, a)
	bld.Output(x)

	bld.SetBlock(right)
	py := bld.Phi(y, b)
	bld.Output(y)

	ir.PinDef(px, 0, res)
	if pinBoth {
		ir.PinDef(py, 0, res)
	}
	return bld.Fn
}

// TestFunc gives each check of verify.Func its own row: a defect that
// only that check catches, at the stage that runs it, and the error
// text that names it. Clean rows pin that the checks accept legal IR at
// both stages. Every row also pins that the verifier never mutates.
func TestFunc(t *testing.T) {
	rows := []struct {
		name  string
		build func() *ir.Func
		stage verify.Stage
		want  string // substring of the error; "" means the function verifies
	}{
		{"clean ssa", func() *ir.Func {
			f := testprog.SwapLoop()
			ssa.MustBuild(f)
			return f
		}, verify.StageSSA, ""},
		{"clean post-ssa", func() *ir.Func { f, _, _, _ := straight(); return f }, verify.StagePostSSA, ""},
		{"legal pin", func() *ir.Func { return split(false) }, verify.StageSSA, ""},

		{"dense tables: block listed twice", func() *ir.Func {
			f, _, _, _ := straight()
			f.SetBlockOrder([]ir.BlockID{f.Entry().ID, f.Entry().ID})
			return f
		}, verify.StageSSA, "tables: "},
		{"parallel copy: duplicated destination", func() *ir.Func {
			return withParCopy(
				func(_, _, c ir.ValueID) ir.ValueID { return c },
				func(_, _, c ir.ValueID) ir.ValueID { return c })
		}, verify.StagePostSSA, "duplicated"},
		{"ssa: value defined twice", func() *ir.Func {
			f, a, _, _ := straight()
			f.Entry().InsertBeforeTerminator(f.NewInstr(ir.Copy, ir.Ops(a), ir.Ops(a)))
			return f
		}, verify.StageSSA, "ssa: "},
		{"pins: strongly interfering φs share a resource", func() *ir.Func { return split(true) },
			verify.StageSSA, "strongly interfere"},
		{"translated: φ left", func() *ir.Func { return split(false) }, verify.StagePostSSA, "survived out-of-SSA"},
		{"translated: parallel copy left", func() *ir.Func {
			return withParCopy(
				func(a, _, _ ir.ValueID) ir.ValueID { return a },
				func(_, b, _ ir.ValueID) ir.ValueID { return b })
		}, verify.StagePostSSA, "not sequentialized"},
		{"unknown stage", func() *ir.Func { f, _, _, _ := straight(); return f }, verify.Stage(7), "unknown stage"},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			f := r.build()
			gen, text := f.Generation(), f.String()
			err := verify.Func(f, r.stage)
			switch {
			case r.want == "" && err != nil:
				t.Fatalf("verify.Func(%v) rejected legal IR: %v", r.stage, err)
			case r.want != "" && err == nil:
				t.Fatalf("verify.Func(%v) accepted the defect, want an error containing %q", r.stage, r.want)
			case r.want != "" && !strings.Contains(err.Error(), r.want):
				t.Fatalf("verify.Func(%v) = %v, want an error containing %q", r.stage, err, r.want)
			}
			if f.Generation() != gen || f.String() != text {
				t.Fatal("verify.Func mutated the function")
			}
		})
	}
}

func TestStageString(t *testing.T) {
	if verify.StageSSA.String() != "ssa" || verify.StagePostSSA.String() != "post-ssa" {
		t.Fatalf("stage names: %q, %q", verify.StageSSA, verify.StagePostSSA)
	}
}
