package ssaopt

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"outofssa/internal/ir"
	"outofssa/internal/ssa"
)

// sprintfKey is the original value-numbering key, the oracle for exprKey.
func sprintfKey(in *ir.Instr) string {
	key := fmt.Sprintf("%d:%d", in.Op(), in.Imm)
	for _, u := range in.Uses() {
		key += fmt.Sprintf(":%d", int32(u.Val))
	}
	return key
}

// TestExprKeyMatchesSprintf checks on random pure instructions that two
// exprKey encodings are equal exactly when their Sprintf keys are. Ops,
// immediates and value IDs are drawn from small pools (negative
// immediates, IDs near the int32 limits) so that equal keys are common.
func TestExprKeyMatchesSprintf(t *testing.T) {
	ops := []ir.Op{ir.Const, ir.Make, ir.Add, ir.Sub, ir.Neg, ir.Select, ir.CmpLT}
	imms := []int64{0, 1, -1, 255, -256, 1 << 40, math.MinInt64, math.MaxInt64}
	vals := []ir.ValueID{0, 1, 2, 255, 256, 1 << 24, math.MaxInt32, ir.NoValue}
	rng := rand.New(rand.NewSource(1))
	f := ir.NewFunc("keys")
	var instrs []*ir.Instr
	for i := 0; i < 600; i++ {
		uses := make([]ir.Operand, rng.Intn(4))
		for j := range uses {
			uses[j].Val = vals[rng.Intn(len(vals))]
		}
		in := f.NewInstr(ops[rng.Intn(len(ops))], []ir.Operand{{Val: 0}}, uses)
		in.Imm = imms[rng.Intn(len(imms))]
		instrs = append(instrs, in)
	}
	equal := 0
	for i, a := range instrs {
		ka := exprKey(nil, a)
		for _, b := range instrs[i+1:] {
			want := sprintfKey(a) == sprintfKey(b)
			if got := bytes.Equal(ka, exprKey(nil, b)); got != want {
				t.Fatalf("%q vs %q: exprKey equal = %v, Sprintf equal = %v", sprintfKey(a), sprintfKey(b), got, want)
			}
			if want {
				equal++
			}
		}
	}
	if equal == 0 {
		t.Fatal("no equal key pairs drawn; the pools are too large to test equality")
	}
}

// TestLocalCSEAllocs pins LocalCSE's allocation count on a fixed
// four-block function with 160 pure instructions: the keys share one
// growing buffer and one map, so the count grows with the logarithm of
// the instruction count (19 here) where the Sprintf keys made about
// three allocations per instruction (510).
func TestLocalCSEAllocs(t *testing.T) {
	bld := ir.NewBuilder("cse-allocs")
	entry := bld.Block("entry")
	x, y := bld.Val("x"), bld.Val("y")
	bld.Input(x, y)
	prev := entry
	for blk := 0; blk < 4; blk++ {
		b := bld.Block(fmt.Sprintf("b%d", blk))
		bld.SetBlock(prev)
		bld.Jump(b)
		bld.SetBlock(b)
		acc := x
		for i := 0; i < 40; i++ {
			d := bld.Val("")
			if i%2 == 0 {
				bld.Binary(ir.Add, d, acc, y)
			} else {
				bld.Const(d, int64(i-blk))
			}
			acc = d
		}
		prev = b
	}
	bld.Output(x)
	info := ssa.EmptyInfo()
	allocs := testing.AllocsPerRun(20, func() { LocalCSE(bld.Fn, info) })
	if allocs > 24 {
		t.Fatalf("LocalCSE made %.0f allocations on 160 pure instructions; want at most 24", allocs)
	}
}
