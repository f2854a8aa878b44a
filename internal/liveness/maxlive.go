package liveness

import (
	"outofssa/internal/bitset"
	"outofssa/internal/ir"
)

// MaxLive returns MAXLIVE: the maximum, over all program points of f,
// of the number of simultaneously live values — the register-pressure
// figure of Bouchez, Darte & Rastello's spill-everywhere model, and the
// first derived metric the pipeline exports as a histogram
// (laoc_liveness_maxlive). Program points follow the paper's φ
// semantics (§3.2): the point just before a block's outgoing parallel
// copy uses ExitLiveSet (φ uses flowing out of the block are live
// there), and the φ instructions themselves are transparent — their
// defs are live from block entry, their uses belong to the
// predecessors — exactly as in Info.LiveAfter.
func MaxLive(f *ir.Func, l *Info) int {
	max := 0
	cur := bitset.New(f.NumValues())
	for _, b := range f.Blocks() {
		cur.CopyFrom(l.ExitLiveSet(b))
		if n := cur.Len(); n > max {
			max = n
		}
		for i := b.NumInstrs() - 1; i >= 0; i-- {
			in := b.Instr(i)
			if in.Op() == ir.Phi {
				// φ rows reached from below: everything above is the
				// entry point, already counted via the predecessors'
				// exit sets and this block's entry state below.
				break
			}
			for _, d := range in.Defs() {
				cur.Remove(int(d.Val))
			}
			for _, u := range in.Uses() {
				cur.Add(int(u.Val))
			}
			if n := cur.Len(); n > max {
				max = n
			}
		}
	}
	return max
}
