package liveness_test

import (
	"fmt"
	"testing"

	"outofssa/internal/cfg"
	"outofssa/internal/ir"
	"outofssa/internal/liveness"
	"outofssa/internal/pin"
	"outofssa/internal/ssa"
	"outofssa/internal/testprog"
)

func blockByName(f *ir.Func, name string) *ir.Block {
	for _, b := range f.Blocks() {
		if b.Name == name {
			return b
		}
	}
	return nil
}

func valByName(f *ir.Func, name string) ir.ValueID {
	for id := 0; id < f.NumValues(); id++ {
		if f.ValueName(ir.ValueID(id)) == name {
			return ir.ValueID(id)
		}
	}
	return ir.NoValue
}

func TestLivenessLoop(t *testing.T) {
	f := testprog.Loop()
	live := liveness.Compute(f)
	head := blockByName(f, "head")
	body := blockByName(f, "body")
	exit := blockByName(f, "exit")
	s := valByName(f, "s")
	i := valByName(f, "i")
	c := valByName(f, "c")

	if !live.LiveIn(s, head) || !live.LiveIn(i, head) {
		t.Error("s and i must be live into head")
	}
	if !live.LiveOut(s, body) || !live.LiveOut(i, body) {
		t.Error("s and i must be live out of body")
	}
	if live.LiveIn(c, head) {
		t.Error("c is defined in head before use; not live-in")
	}
	if live.LiveOut(s, exit) || live.LiveIn(i, exit) {
		t.Error("nothing live out of exit; i dead in exit")
	}
}

// TestPhiSemantics checks the paper's §3.2 definition: a φ argument not
// otherwise used is dead at the exit of the predecessor block and at the
// entry of the φ's block; the φ def is not live-in.
func TestPhiSemantics(t *testing.T) {
	bld := ir.NewBuilder("phisem")
	entry := bld.Block("entry")
	l := bld.Fn.NewBlock("l")
	r := bld.Fn.NewBlock("r")
	join := bld.Fn.NewBlock("join")

	c, x1, x2, x3 := bld.Val("c"), bld.Val("x1"), bld.Val("x2"), bld.Val("x3")
	bld.SetBlock(entry)
	bld.Input(c)
	bld.Br(c, l, r)
	bld.SetBlock(l)
	bld.Const(x1, 1)
	bld.Jump(join)
	bld.SetBlock(r)
	bld.Const(x2, 2)
	bld.Jump(join)
	bld.SetBlock(join)
	bld.Phi(x3, x1, x2)
	bld.Output(x3)

	live := liveness.Compute(bld.Fn)
	if live.LiveOut(x1, l) {
		t.Error("φ use x1 must not be in LiveOut(l) (dead at exit of pred)")
	}
	if !live.ExitLiveSet(l).Has(int(x1)) {
		t.Error("φ use x1 must be in ExitLive(l) (live before the copy point)")
	}
	if live.LiveIn(x1, join) || live.LiveIn(x3, join) {
		t.Error("neither φ arg nor φ def may be live-in to the φ block")
	}
	if live.LiveOut(x3, l) || live.LiveOut(x3, r) {
		t.Error("φ def must not be live out of predecessors")
	}
}

// TestPhiArgLiveThrough: if the φ argument IS used elsewhere after the
// block, it stays live-out of the predecessor (Class 2 interference
// relies on this distinction).
func TestPhiArgLiveThrough(t *testing.T) {
	bld := ir.NewBuilder("phithrough")
	entry := bld.Block("entry")
	l := bld.Fn.NewBlock("l")
	r := bld.Fn.NewBlock("r")
	join := bld.Fn.NewBlock("join")

	c, x1, x2, x3, y := bld.Val("c"), bld.Val("x1"), bld.Val("x2"), bld.Val("x3"), bld.Val("y")
	bld.SetBlock(entry)
	bld.Input(c, x1)
	bld.Br(c, l, r)
	bld.SetBlock(l)
	bld.Jump(join)
	bld.SetBlock(r)
	bld.Const(x2, 2)
	bld.Jump(join)
	bld.SetBlock(join)
	bld.Phi(x3, x1, x2)
	bld.Binary(ir.Add, y, x3, x1) // x1 used after the φ
	bld.Output(y)

	live := liveness.Compute(bld.Fn)
	if !live.LiveOut(x1, l) || !live.LiveOut(x1, r) {
		t.Error("x1 used past the φ: must be live-out of both preds")
	}
	if !live.LiveIn(x1, join) {
		t.Error("x1 must be live-in to join (used by non-φ instruction)")
	}
}

// Reference liveness: v is live-in at block b iff some path from the top
// of b reaches a use of v (φ uses count at the end of the predecessor)
// before any def of v.
func refLiveIn(v ir.ValueID, b *ir.Block) bool {
	visited := make(map[*ir.Block]bool)
	var from func(*ir.Block) bool
	from = func(x *ir.Block) bool {
		if visited[x] {
			return false
		}
		visited[x] = true
		for _, in := range x.Instrs() {
			if in.Op() != ir.Phi {
				for _, u := range in.Uses() {
					if u.Val == v {
						return true
					}
				}
			}
			for _, d := range in.Defs() {
				if d.Val == v {
					return false
				}
			}
		}
		for si := 0; si < x.NumSuccs(); si++ {
			s := x.Succ(si)
			pi := s.PredIndex(x.ID)
			for _, phi := range s.Phis() {
				if phi.Use(pi) == v {
					return true
				}
			}
		}
		for si := 0; si < x.NumSuccs(); si++ {
			s := x.Succ(si)
			// φ defs of s kill v on that path.
			killed := false
			for _, phi := range s.Phis() {
				if phi.Def(0) == v {
					killed = true
				}
			}
			if !killed && from(s) {
				return true
			}
		}
		return false
	}
	return from(b)
}

// crossCheckEngines requires the two liveness engines — Compute, the
// production fixed point, and refLiveIn, the test-only path-search
// oracle — to agree on every (value, reachable block) point: LiveIn
// directly, LiveOut as the union of the successors' live-ins, and
// ExitLive as LiveOut plus the φ arguments flowing out of the block.
// Unreachable blocks are the sweep's own contract (see
// TestLivenessEnginesAgreeUnreachable).
func crossCheckEngines(t *testing.T, f *ir.Func) {
	t.Helper()
	live := liveness.Compute(f)
	for _, b := range cfg.Postorder(f) {
		for id := 0; id < f.NumValues(); id++ {
			v := ir.ValueID(id)
			if f.IsPhys(v) {
				continue
			}
			if got, want := live.LiveIn(v, b), refLiveIn(v, b); got != want {
				t.Fatalf("%s: LiveIn(%v, %v) = %v, want %v\n%s", f.Name, f.VStr(v), b, got, want, f)
			}
			out, phiUse := false, false
			for _, sid := range b.Succs() {
				s := f.Block(sid)
				out = out || refLiveIn(v, s)
				for _, phi := range s.Phis() {
					phiUse = phiUse || phi.Use(s.PredIndex(b.ID)) == v
				}
			}
			if got := live.LiveOut(v, b); got != out {
				t.Fatalf("%s: LiveOut(%v, %v) = %v, want %v\n%s", f.Name, f.VStr(v), b, got, out, f)
			}
			if got := live.ExitLive(v, b); got != (out || phiUse) {
				t.Fatalf("%s: ExitLive(%v, %v) = %v, want %v\n%s", f.Name, f.VStr(v), b, got, out || phiUse, f)
			}
		}
	}
}

// ssaRand generates a random structured program and converts it to SSA
// with the real pin-collect phases, matching the production pipeline's
// IR shape (φ webs, SP ties, ABI slots).
func ssaRand(t *testing.T, seed int64, opt testprog.RandOptions) *ir.Func {
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

func TestLivenessAgainstReference(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		f := testprog.Rand(seed, testprog.DefaultRandOptions())
		ssa.Build(f) // exercise the φ semantics too
		live := liveness.Compute(f)
		for _, b := range f.Blocks() {
			for id := 0; id < f.NumValues(); id++ {
				v := ir.ValueID(id)
				if f.IsPhys(v) {
					continue
				}
				want := refLiveIn(v, b)
				got := live.LiveIn(v, b)
				if got != want {
					t.Fatalf("seed %d: LiveIn(%v, %v) = %v, want %v", seed, f.VStr(v), b, got, want)
				}
			}
		}
	}
}

// TestLivenessEnginesAgree is the property test: over random functions
// — both the raw pre-SSA form (multi-def variables) and the pinned SSA
// form — Compute and the reference oracle must agree exactly.
func TestLivenessEnginesAgree(t *testing.T) {
	t.Run("ssa", func(t *testing.T) {
		for seed := int64(0); seed < 40; seed++ {
			crossCheckEngines(t, ssaRand(t, seed, testprog.DefaultRandOptions()))
		}
	})
	t.Run("pre-ssa", func(t *testing.T) {
		for seed := int64(0); seed < 40; seed++ {
			crossCheckEngines(t, testprog.Rand(seed, testprog.DefaultRandOptions()))
		}
	})
}

// TestLivenessEnginesAgreeOnSuites cross-checks the deterministic test
// programs (lost copy, swap, nesting).
func TestLivenessEnginesAgreeOnSuites(t *testing.T) {
	for _, f := range testprog.All() {
		ssa.MustBuild(f)
		crossCheckEngines(t, f)
	}
}

// TestLivenessEnginesAgreeUnreachable pins the unreachable-block
// contract: the sweep visits only entry-reachable blocks, so
// unreachable blocks keep empty sets and their φ edges and uses
// contribute nothing — a dead block's uses are not live-range seeds.
func TestLivenessEnginesAgreeUnreachable(t *testing.T) {
	bld := ir.NewBuilder("unreach")
	entry := bld.Block("entry")
	left := bld.Fn.NewBlock("left")
	right := bld.Fn.NewBlock("right")
	dead := bld.Fn.NewBlock("dead")
	merge := bld.Fn.NewBlock("merge")

	a, one, c := bld.Val("a"), bld.Val("one"), bld.Val("c")
	x1, x2, x3, d, r := bld.Val("x1"), bld.Val("x2"), bld.Val("x3"), bld.Val("d"), bld.Val("r")

	bld.SetBlock(entry)
	bld.Input(a)
	bld.Const(one, 1)
	bld.Binary(ir.CmpLT, c, a, one)
	bld.Br(c, left, right)

	bld.SetBlock(left)
	bld.Binary(ir.Add, x1, a, one)
	bld.Jump(merge)

	bld.SetBlock(right)
	bld.Binary(ir.Add, x2, a, a)
	bld.Jump(merge)

	// No edge leads here: uses of reachable values (a, x1) in this block
	// must not extend their live ranges, and the φ argument flowing from
	// this block must not be exit-live anywhere.
	bld.SetBlock(dead)
	bld.Binary(ir.Add, d, a, x1)
	bld.Jump(merge)

	bld.SetBlock(merge)
	bld.Phi(x3, x1, x2, d)
	bld.Binary(ir.Mul, r, x3, a)
	bld.Output(r)

	f := bld.Fn
	crossCheckEngines(t, f)

	live := liveness.Compute(f)
	if live.LiveOut(a, dead) || !live.LiveOutSet(dead).Empty() || !live.LiveInSet(dead).Empty() {
		t.Fatal("unreachable block has a non-empty live set")
	}
	if live.ExitLive(d, dead) {
		t.Fatal("φ argument from an unreachable predecessor reported exit-live")
	}
	if !live.ExitLive(x1, left) || live.LiveOut(x1, left) {
		t.Fatal("x1 must be exit-live (φ use) but not live-out of left")
	}
}

// TestLivenessEnginesAgreePhiHeavy cross-checks a merge carrying a wide
// φ prefix (every arm value flows through its own φ and stays live past
// the merge), the shape that stresses the φ-edge uses and the parallel
// φ semantics.
func TestLivenessEnginesAgreePhiHeavy(t *testing.T) {
	const k = 12
	bld := ir.NewBuilder("phiheavy")
	entry := bld.Block("entry")
	left := bld.Fn.NewBlock("left")
	right := bld.Fn.NewBlock("right")
	merge := bld.Fn.NewBlock("merge")

	a, one, c := bld.Val("a"), bld.Val("one"), bld.Val("c")
	bld.SetBlock(entry)
	bld.Input(a)
	bld.Const(one, 1)
	bld.Binary(ir.CmpLT, c, a, one)
	bld.Br(c, left, right)

	var ls, rs, ms [k]ir.ValueID
	for i := range ls {
		ls[i] = bld.Val(fmt.Sprintf("l%d", i))
		rs[i] = bld.Val(fmt.Sprintf("r%d", i))
		ms[i] = bld.Val(fmt.Sprintf("m%d", i))
	}
	bld.SetBlock(left)
	for i := range ls {
		bld.Binary(ir.Add, ls[i], a, one)
	}
	bld.Jump(merge)
	bld.SetBlock(right)
	for i := range rs {
		bld.Binary(ir.Add, rs[i], a, a)
	}
	bld.Jump(merge)

	bld.SetBlock(merge)
	for i := range ms {
		bld.Phi(ms[i], ls[i], rs[i])
	}
	sum := ms[0]
	for i := 1; i < k; i++ {
		next := bld.Val(fmt.Sprintf("s%d", i))
		bld.Binary(ir.Add, next, sum, ms[i])
		sum = next
	}
	bld.Output(sum)

	crossCheckEngines(t, bld.Fn)
}

// FuzzLivenessEngines fuzzes Compute against the reference oracle, on
// both the pre-SSA and the pinned-SSA form of each random function. The
// size knob maps to generator options the same way as the interference
// engine fuzzer, so crashers transfer between corpora.
func FuzzLivenessEngines(f *testing.F) {
	f.Add(int64(0), int64(0))
	f.Add(int64(1), int64(17))
	f.Add(int64(7), int64(36))
	f.Add(int64(42), int64(5))
	f.Add(int64(1002), int64(90))
	f.Fuzz(func(t *testing.T, seed, size int64) {
		if size < 0 {
			size = -size
		}
		opt := testprog.RandOptions{
			MaxDepth:      int(1 + size%3),
			Vars:          int(3 + (size/3)%5),
			StmtsPerBlock: int(1 + (size/18)%5),
			Calls:         size%2 == 0,
			Stack:         (size/2)%2 == 0,
		}
		crossCheckEngines(t, testprog.Rand(seed, opt))
		crossCheckEngines(t, ssaRand(t, seed, opt))
	})
}

func TestLiveAfter(t *testing.T) {
	f := testprog.Loop()
	live := liveness.Compute(f)
	body := blockByName(f, "body")
	s := valByName(f, "s")
	i := valByName(f, "i")
	// After "s = s + i" (index 0), both s and i are live (i used next).
	after0 := live.LiveAfter(body, 0)
	if !after0.Has(int(s)) || !after0.Has(int(i)) {
		t.Error("s and i must be live after the accumulation")
	}
}
