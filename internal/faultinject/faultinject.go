// Package faultinject deliberately corrupts IR in ways that mimic pass
// bugs, to prove the checked pipeline's verifier (internal/verify)
// actually catches them. Each Class breaks exactly one invariant the
// out-of-SSA correctness argument depends on; the robustness tests
// assert that verify.Func rejects every class and that the pipeline
// surfaces the rejection as a *pipeline.PassError naming the pass the
// corruption was injected after.
//
// Injection is deterministic: each class corrupts the first applicable
// site in block/instruction order, so a failing test reproduces
// exactly.
package faultinject

import (
	"outofssa/internal/cfg"
	"outofssa/internal/ir"
)

// Class names one corruption. The value is stable and human-readable;
// it appears in test names and failure messages.
type Class string

const (
	// ClobberPhiArg redirects a φ argument to a fresh value that has no
	// definition anywhere — the shape of a renaming bug. Caught by the
	// SSA check (undefined φ use).
	ClobberPhiArg Class = "clobber-phi-arg"
	// DuplicatePin pins the two first φ definitions of one block to a
	// common fresh resource, violating the paper's Figure 4 case 3 (φs
	// execute in parallel and cannot share a register). Caught by the
	// pin-legality check.
	DuplicatePin Class = "duplicate-pin"
	// UseBeforeDef rewires an operand to a value defined later in the
	// same block — a scheduling/ordering bug. Caught by the SSA
	// dominance check.
	UseBeforeDef Class = "use-before-def"
	// BrokenCopyCycle inserts a parallel copy that writes one
	// destination twice — the shape of a sequentialization bug. Caught
	// by the parallel-copy consistency check.
	BrokenCopyCycle Class = "broken-copy-cycle"
	// DoubleDef adds a second definition of an existing SSA value.
	// Caught by the SSA single-definition check.
	DoubleDef Class = "double-def"
	// PhiArityMismatch drops the last argument of a φ, desynchronizing
	// it from its block's predecessor list. Caught by the structural
	// check.
	PhiArityMismatch Class = "phi-arity-mismatch"
	// DanglingEdge appends a successor edge without the matching
	// predecessor backlink. Caught by the structural CFG symmetry
	// check.
	DanglingEdge Class = "dangling-edge"
	// MisplacedPhi swaps a φ below a non-φ instruction, breaking the
	// φ-prefix rule the parallel φ semantics rely on. Caught by the
	// structural check.
	MisplacedPhi Class = "misplaced-phi"
	// StaleVarLiveness swaps two φ arguments across predecessor slots,
	// choosing a pair where one argument's definition does not dominate
	// the other's slot — the shape of a bug whose cached liveness goes
	// stale: the moved use extends one variable's live range into a
	// region the cached Info never covered, while every block, pin and
	// instruction count stays plausible. Injected silently, a cached
	// Info keeps answering from the old live ranges; caught by the SSA
	// φ-argument dominance check.
	StaleVarLiveness Class = "stale-var-liveness"
)

// Classes lists every corruption class, in a fixed order.
var Classes = []Class{
	ClobberPhiArg,
	DuplicatePin,
	UseBeforeDef,
	BrokenCopyCycle,
	DoubleDef,
	PhiArityMismatch,
	DanglingEdge,
	MisplacedPhi,
	StaleVarLiveness,
}

// Inject applies the corruption class c to f, mutating it, and reports
// whether an applicable site was found (e.g. ClobberPhiArg needs a φ).
// When it returns false, f is unchanged.
//
// Inject honors the ir.Func mutation contract: a successful injection
// calls NoteCFGMutation (some classes, like DanglingEdge, splice the
// block graph in place, and over-invalidating is always safe),
// modelling a buggy-but-well-behaved pass. Analyses requested
// afterwards therefore see the corrupted function — which is what lets
// the checked-mode verifier catch the damage. InjectSilent is the
// contract-violating variant.
func Inject(f *ir.Func, c Class) bool {
	if !InjectSilent(f, c) {
		return false
	}
	f.NoteCFGMutation()
	return true
}

// InjectSilent is Inject without the generation bump: it models a pass
// that mutates the IR but violates the generation-counter contract, so
// cached analyses remain (wrongly) valid. The SoA mutators bump the
// counters automatically, so a contract-violating pass can no longer
// exist by accident; the injector recreates one deliberately by
// restoring the counters with SetGenerations after the operand-only
// classes — UseBeforeDef, PhiArityMismatch, DanglingEdge, MisplacedPhi,
// StaleVarLiveness — have mutated through the API. Classes that create
// values or instructions keep their bumps (a fresh value would make the
// restored counters lie about slab sizes, not just about staleness).
// The analysis cache tests use this to demonstrate what staleness looks
// like; everything else should call Inject.
func InjectSilent(f *ir.Func, c Class) bool {
	gen, cfgGen := f.Generation(), f.CFGGeneration()
	ok := false
	silent := false
	switch c {
	case ClobberPhiArg:
		ok = clobberPhiArg(f)
	case DuplicatePin:
		ok = duplicatePin(f)
	case UseBeforeDef:
		ok, silent = useBeforeDef(f), true
	case BrokenCopyCycle:
		ok = brokenCopyCycle(f)
	case DoubleDef:
		ok = doubleDef(f)
	case PhiArityMismatch:
		ok, silent = phiArityMismatch(f), true
	case DanglingEdge:
		ok, silent = danglingEdge(f), true
	case MisplacedPhi:
		ok, silent = misplacedPhi(f), true
	case StaleVarLiveness:
		ok, silent = staleVarLiveness(f), true
	}
	if ok && silent {
		f.SetGenerations(gen, cfgGen)
	}
	return ok
}

func firstPhi(f *ir.Func) *ir.Instr {
	for _, b := range f.Blocks() {
		for _, phi := range b.Phis() {
			return phi
		}
	}
	return nil
}

func clobberPhiArg(f *ir.Func) bool {
	phi := firstPhi(f)
	if phi == nil || phi.NumUses() == 0 {
		return false
	}
	phi.SetUseVal(0, f.NewValue("fault.undef"))
	return true
}

func duplicatePin(f *ir.Func) bool {
	for _, b := range f.Blocks() {
		if b.NumPhis() < 2 {
			continue
		}
		res := f.NewValue("fault.res")
		ir.PinDef(b.Instr(0), 0, res)
		ir.PinDef(b.Instr(1), 0, res)
		return true
	}
	return false
}

func useBeforeDef(f *ir.Func) bool {
	for _, b := range f.Blocks() {
		for i, in := range b.Instrs() {
			if in.Op() == ir.Phi || in.NumUses() == 0 {
				continue
			}
			// A value defined strictly later in the same block.
			for j := i + 1; j < b.NumInstrs(); j++ {
				for _, d := range b.Instr(j).Defs() {
					if f.IsPhys(d.Val) || d.Val == in.Use(0) {
						continue
					}
					in.SetUseVal(0, d.Val)
					return true
				}
			}
		}
	}
	return false
}

func brokenCopyCycle(f *ir.Func) bool {
	v := ir.NoValue
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			for _, d := range in.Defs() {
				if !f.IsPhys(d.Val) {
					v = d.Val
					break
				}
			}
		}
	}
	if v == ir.NoValue {
		return false
	}
	pc := f.NewInstr(ir.ParCopy, ir.Ops(v, v), ir.Ops(v, v))
	f.Entry().InsertBeforeTerminator(pc)
	return true
}

func doubleDef(f *ir.Func) bool {
	for _, b := range f.Blocks() {
		for i, in := range b.Instrs() {
			if in.Op() == ir.Phi || in.Op().IsTerminator() {
				continue
			}
			for _, d := range in.Defs() {
				if f.IsPhys(d.Val) {
					continue
				}
				b.InsertAt(i+1, f.NewInstr(ir.Copy, ir.Ops(d.Val), ir.Ops(d.Val)))
				return true
			}
		}
	}
	return false
}

func phiArityMismatch(f *ir.Func) bool {
	phi := firstPhi(f)
	if phi == nil || phi.NumUses() == 0 {
		return false
	}
	phi.RemoveUseAt(phi.NumUses() - 1)
	return true
}

func danglingEdge(f *ir.Func) bool {
	blocks := f.Blocks()
	if len(blocks) == 0 {
		return false
	}
	b := blocks[0]
	b.SetSuccs(append(append([]ir.BlockID(nil), b.Succs()...), blocks[len(blocks)-1].ID))
	return true
}

// staleVarLiveness swaps two arguments of one φ across predecessor
// slots. The pair is chosen so the swap is provably wrong: the first
// argument's definition must not dominate the slot it is moved into,
// which guarantees the φ-argument dominance check rejects the result
// (a swap between symmetric arguments could produce valid SSA and go
// undetected). The corruption is operand-only — block structure,
// instruction counts and pins all stay intact — so the only evidence
// is liveness flowing along the wrong φ edges.
func staleVarLiveness(f *ir.Func) bool {
	defBlk := make(map[ir.ValueID]*ir.Block)
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			for _, d := range in.Defs() {
				if !f.IsPhys(d.Val) {
					defBlk[d.Val] = b
				}
			}
		}
	}
	dom := cfg.Dominators(f)
	for _, b := range f.Blocks() {
		for _, phi := range b.Phis() {
			n := phi.NumUses()
			if n > b.NumPreds() {
				n = b.NumPreds()
			}
			for i := 0; i < n; i++ {
				vi := phi.Use(i)
				if f.IsPhys(vi) || defBlk[vi] == nil {
					continue
				}
				for j := 0; j < n; j++ {
					vj := phi.Use(j)
					if i == j || vi == vj || f.IsPhys(vj) {
						continue
					}
					if !dom.Dominates(defBlk[vi], b.Pred(j)) {
						phi.SetUseVal(i, vj)
						phi.SetUseVal(j, vi)
						return true
					}
				}
			}
		}
	}
	return false
}

func misplacedPhi(f *ir.Func) bool {
	for _, b := range f.Blocks() {
		n := b.FirstNonPhi()
		if n == 0 || n >= b.NumInstrs() {
			continue
		}
		phi := b.RemoveAt(n - 1)
		b.InsertAt(n, phi)
		return true
	}
	return false
}
