// COW-aliasing probe: the snapshot counterpart of the corruption
// classes. Where Inject breaks an SSA invariant and expects the
// verifier to notice, InjectCOWAliasing attacks the copy-on-write
// isolation invariant directly — it mutates a materialized copy and
// checks the parent snapshot's arena bytes byte-for-byte (and the
// reverse direction), using ir.Func.ArenaChecksum as the witness. It is
// a test fixture for internal/ir, not a per-request check: the
// faultinject and ir test suites run it (under -race in CI) against
// healthy IR and against a hand-forged aliasing bug, and the pipeline
// never calls it.
package faultinject

import (
	"fmt"

	"outofssa/internal/ir"
)

// InjectCOWAliasing probes the snapshot isolation invariant on f. It
// freezes f, takes a parent snapshot and a child of that parent, then:
//
//  1. mutates the child across every slab class (operands, code,
//     edges, values) — materializing it — and asserts the parent's
//     arena checksum never moved;
//  2. mutates the parent the same way and asserts the now-private
//     child held still (the "vice versa" direction);
//  3. asserts f itself — the family master both sides were carved
//     from — kept its original bytes throughout.
//
// It returns nil when isolation held and a descriptive error naming
// the leaking direction otherwise. On success f's content is
// untouched (the probe only writes to throwaway snapshots, which it
// releases), but f is left frozen: its next mutation re-privatizes
// the slabs through the normal COW fault path, which after the
// releases is a copy-free adoption.
func InjectCOWAliasing(f *ir.Func) error {
	f.Freeze()
	before := f.ArenaChecksum()
	parent := f.Snapshot()
	child := parent.Snapshot()
	defer parent.Release()
	defer child.Release()

	witness := parent.ArenaChecksum()
	cowProbeMutate(child)
	if got := parent.ArenaChecksum(); got != witness {
		return fmt.Errorf("cow aliasing: mutating the materialized copy moved the parent snapshot's arena bytes (%#x -> %#x)", witness, got)
	}

	witness = child.ArenaChecksum()
	cowProbeMutate(parent)
	if got := child.ArenaChecksum(); got != witness {
		return fmt.Errorf("cow aliasing: mutating the parent snapshot moved the materialized copy's arena bytes (%#x -> %#x)", witness, got)
	}

	if got := f.ArenaChecksum(); got != before {
		return fmt.Errorf("cow aliasing: snapshot traffic moved the frozen master's arena bytes (%#x -> %#x)", before, got)
	}
	return nil
}

// cowProbeMutate drives one write through each slab class so every
// share flag is exercised. The writes are semantic no-ops (identity
// rewrites, a fresh unused value) — the probe cares that the write
// faults the slab, not what it stores — so a leak is detectable as a
// checksum change on the other side without ever producing invalid IR
// on this side.
func cowProbeMutate(g *ir.Func) {
	// Operand slab: identity-rewrite the first definition.
ops:
	for _, b := range g.Blocks() {
		for i := 0; i < b.NumInstrs(); i++ {
			if in := b.Instr(i); in.NumDefs() > 0 {
				in.SetDefVal(0, in.Def(0))
				break ops
			}
		}
	}
	// Code slab: lift the entry terminator out and put it straight back.
	if eb := g.Entry(); eb != nil && eb.NumInstrs() > 0 {
		i := eb.NumInstrs() - 1
		eb.InsertAt(i, eb.RemoveAt(i))
	}
	// Edge slab: rewrite the first predecessor link to itself.
	for _, b := range g.Blocks() {
		if b.NumPreds() > 0 {
			b.ReplacePred(b.Preds()[0], b.Preds()[0])
			break
		}
	}
	// Value slab: append one orphan value.
	g.NewValue("fault.cowprobe")
}
