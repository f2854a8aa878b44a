package interference

import (
	"sort"

	"outofssa/internal/bitset"
	"outofssa/internal/ir"
	"outofssa/internal/pin"
)

// Engine selects the Resource_killed / Resource_interfere implementation.
type Engine int

const (
	// EngineDominance (the default) answers resource-level queries with a
	// dominance-ordered stack sweep over the class's definition points
	// (Budimlić-style dominance forest): O(k log k) for the sort plus a
	// walk of the current dominance chain, instead of the O(k²) pairwise
	// Kills expansion. Classes at or below sweepCutoff virtual members
	// dispatch to the pairwise expansion, which is faster at tiny k.
	// Results are bit-for-bit identical to EnginePairwise either way;
	// engines_test.go cross-checks them on the fuzz corpus.
	EngineDominance Engine = iota
	// EnginePairwise is the original O(k²) expansion, kept as the oracle
	// for cross-checking and for `ssabench -interference-engine=pairwise`.
	EnginePairwise
)

func (e Engine) String() string {
	if e == EnginePairwise {
		return "pairwise"
	}
	return "dominance"
}

// DefaultEngine is the engine NewResourceGraph installs; ssabench's
// -interference-engine flag overrides it process-wide.
var DefaultEngine = EngineDominance

// ResourceGraph lifts variable interference to resources (§3.3). It
// consults pin.Resources for membership, so queries remain correct as
// the coalescer merges classes; resource-level verdicts are memoized
// keyed on the Resources generation, so repeated probes between merges
// (the greedy affinity pruning re-asks constantly) cost a map hit.
type ResourceGraph struct {
	An  *Analysis
	Res *pin.Resources

	// Engine selects the query implementation; both produce identical
	// verdicts.
	Engine Engine

	// Sites are the pinned-use clobber points of the function (φ uses
	// excluded — those are Class 2).
	Sites []PinSite

	killedMemo    map[ir.ValueID]killedEntry
	interfereMemo map[[2]ir.ValueID]interfereEntry
	pool          bitset.Pool

	// Sweep scratch, recycled across queries: defPoint structs, the
	// point-slice headers, and the dominance-chain stack. The sweeps run
	// once per (resource, generation) but the coalescer's probe loop makes
	// that tens of thousands of times per function, so their steady-state
	// allocation rate has to be zero.
	ptFree  []*defPoint
	bufFree [][]*defPoint
	stack   []*defPoint
}

type killedEntry struct {
	gen uint64
	set *bitset.Set
}

type interfereEntry struct {
	gen     uint64
	verdict bool
}

// NewResourceGraph pairs an analysis with resource classes and collects
// the pinned-use clobber sites.
func NewResourceGraph(an *Analysis, res *pin.Resources) *ResourceGraph {
	g := &ResourceGraph{
		An:            an,
		Res:           res,
		Engine:        DefaultEngine,
		killedMemo:    make(map[ir.ValueID]killedEntry),
		interfereMemo: make(map[[2]ir.ValueID]interfereEntry),
	}
	for _, b := range an.fn.Blocks() {
		for _, in := range b.Instrs() {
			if in.Op() == ir.Phi {
				continue
			}
			for _, u := range in.Uses() {
				if u.Pinned() {
					g.Sites = append(g.Sites, PinSite{Pin: u.Pin(), Val: u.Val, In: in})
				}
			}
		}
	}
	return g
}

// KilledSet implements Resource_killed: the members of v's resource that
// are killed by some other member (or by themselves, for the lost-copy
// case), or by a pinned use writing the resource while they are live.
// The returned set is memoized and must be treated as read-only; it is
// valid until the next Resources.Union.
func (g *ResourceGraph) KilledSet(v ir.ValueID) *bitset.Set {
	g.An.c.ResourceKilled++
	root := g.Res.Find(v)
	gen := g.Res.Gen()
	if e, ok := g.killedMemo[root]; ok && e.gen == gen {
		g.An.c.KilledMemoHits++
		return e.set
	}
	var s *bitset.Set
	if g.Engine == EnginePairwise {
		s = g.killedPairwise(root, g.Res.Members(root))
	} else {
		s = g.killedSweep(root)
	}
	g.killedMemo[root] = killedEntry{gen: gen, set: s}
	return s
}

// Killed is KilledSet as a map, for callers (and tests) that want value
// keys rather than a bitset.
func (g *ResourceGraph) Killed(v ir.ValueID) map[ir.ValueID]bool {
	set := g.KilledSet(v)
	killed := make(map[ir.ValueID]bool, set.Len())
	set.ForEach(func(id int) { killed[ir.ValueID(id)] = true })
	return killed
}

// Interfere implements Resource_interfere(A, B): merging the two
// resources would create a new simple interference (a repair not already
// needed) or a strong interference (incorrect code).
func (g *ResourceGraph) Interfere(a, b ir.ValueID) bool {
	g.An.c.ResourceInterfere++
	ra, rb := g.Res.Find(a), g.Res.Find(b)
	if ra == rb {
		return false
	}
	if g.An.fn.IsPhys(ra) && g.An.fn.IsPhys(rb) {
		return true // distinct dedicated registers
	}
	key := [2]ir.ValueID{ra, rb}
	if key[0] > key[1] {
		key[0], key[1] = key[1], key[0]
	}
	gen := g.Res.Gen()
	if e, ok := g.interfereMemo[key]; ok && e.gen == gen {
		g.An.c.InterfereMemoHits++
		return e.verdict
	}
	var v bool
	if g.Engine == EnginePairwise {
		v = g.interferePairwise(ra, rb, g.Res.Members(ra), g.Res.Members(rb))
	} else {
		v = g.interfereSweep(ra, rb)
	}
	g.interfereMemo[key] = interfereEntry{gen: gen, verdict: v}
	return v
}

// ---------------------------------------------------------------------
// Pairwise engine: the direct O(k²) expansion of the paper's lifting.

func (g *ResourceGraph) killedPairwise(root ir.ValueID, members []ir.ValueID) *bitset.Set {
	f := g.An.fn
	// Empty, not sized by f: Leung asks once per root, singletons
	// included, and most sets stay empty.
	killed := &bitset.Set{}
	for _, ai := range members {
		if f.IsPhys(ai) {
			continue
		}
		for _, aj := range members {
			if f.IsPhys(aj) {
				continue
			}
			if g.An.Kills(aj, ai) {
				killed.Add(int(ai))
				break
			}
		}
	}
	for _, site := range g.Sites {
		if g.Res.Find(site.Pin) != root {
			continue
		}
		for _, m := range members {
			if f.IsPhys(m) || killed.Has(int(m)) {
				continue
			}
			if site.kills(g.An, m) {
				killed.Add(int(m))
			}
		}
	}
	return killed
}

func (g *ResourceGraph) interferePairwise(ra, rb ir.ValueID, ma, mb []ir.ValueID) bool {
	f := g.An.fn
	killedA := g.KilledSet(ra)
	killedB := g.KilledSet(rb)
	for _, x := range ma {
		if f.IsPhys(x) {
			continue
		}
		for _, y := range mb {
			if f.IsPhys(y) {
				continue
			}
			if !killedA.Has(int(x)) && g.An.Kills(y, x) {
				return true
			}
			if !killedB.Has(int(y)) && g.An.Kills(x, y) {
				return true
			}
			if g.An.StronglyInterfere(x, y) {
				return true
			}
		}
	}
	// A pinned use writing one resource kills live members of the other
	// once merged.
	for _, site := range g.Sites {
		rs := g.Res.Find(site.Pin)
		var victims []ir.ValueID
		var killedV *bitset.Set
		switch rs {
		case ra:
			victims, killedV = mb, killedB
		case rb:
			victims, killedV = ma, killedA
		default:
			continue
		}
		for _, m := range victims {
			if f.IsPhys(m) || killedV.Has(int(m)) {
				continue
			}
			if site.kills(g.An, m) {
				return true
			}
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Dominance engine.
//
// In strict SSA a value live at a program point has its definition
// dominating that point, so every Class-1 kill pair within a class is an
// ancestor/descendant pair among the members' definition points in the
// dominator tree (the descendant's definition clobbers the still-live
// ancestor). Sorting the definition points in dominator-tree preorder
// and sweeping a stack of the current dominance chain therefore
// enumerates exactly the pairs the pairwise expansion tests positive
// dominance for — and the liveness half of the test depends only on the
// killer's definition *point*, not on which member defined there, so it
// runs once per (point, ancestor) instead of once per member pair.

// defPoint is one program point defining members of a class: a non-φ
// instruction (idxKey = its index) or the φ prefix of a block
// (idxKey = -1; φ defs act in parallel at block entry). region is -1
// for blocks reachable from the entry and the block ID otherwise:
// unreachable blocks have no preorder interval, but dominance within
// such a block is still instruction order, so each one sweeps as its
// own chain (cross-block dominance involving an unreachable block is
// always false, matching instrDominates).
type defPoint struct {
	region int
	pre    int // dominator-tree preorder of the block
	idxKey int
	block  *ir.Block
	def    *ir.Instr // representative def (any φ of the block for idxKey -1)
	side   int       // 0/1 during Interfere merges; 0 for Killed
	vals   []ir.ValueID
}

// covers reports whether a definition at point p strictly dominates a
// definition at a later (in sweep order) distinct point q — exactly
// instrDominates lifted to points.
func (g *ResourceGraph) covers(p, q *defPoint) bool {
	if p.block != q.block {
		return p.region == -1 && q.region == -1 &&
			g.An.dom.StrictlyDominates(p.block, q.block)
	}
	return p.idxKey < q.idxKey
}

// takePoint returns a recycled defPoint (vals emptied, member capacity
// retained) or a fresh one when the free list is dry.
func (g *ResourceGraph) takePoint() *defPoint {
	if n := len(g.ptFree); n > 0 {
		p := g.ptFree[n-1]
		g.ptFree = g.ptFree[:n-1]
		p.vals = p.vals[:0]
		return p
	}
	return &defPoint{}
}

// takeBuf returns an empty point slice with recycled capacity.
func (g *ResourceGraph) takeBuf() []*defPoint {
	if n := len(g.bufFree); n > 0 {
		b := g.bufFree[n-1]
		g.bufFree = g.bufFree[:n-1]
		return b[:0]
	}
	return nil
}

// putPoints recycles the points and the slice header for the next query.
func (g *ResourceGraph) putPoints(pts []*defPoint) {
	g.ptFree = append(g.ptFree, pts...)
	g.bufFree = append(g.bufFree, pts)
}

// collectPoints groups the def-carrying virtual members of a class by
// definition point, in sweep order. It reports a collision when some
// point already holds members of another side (Interfere passes
// merge=true): members of both classes defined at one point means either
// two results of one instruction (strong interference) or two φs of one
// block (Class 4) — interference either way. The returned slice is valid
// either way and must be recycled with putPoints.
func (g *ResourceGraph) collectPoints(pts []*defPoint, members []ir.ValueID, side int, merge bool) ([]*defPoint, bool) {
	an := g.An
	for _, m := range members {
		if an.fn.IsPhys(m) {
			continue
		}
		def := an.defs[m]
		if def == nil {
			continue
		}
		b := def.Block()
		idxKey := an.defIdx[m]
		if def.Op() == ir.Phi {
			idxKey = -1
		}
		found := false
		for _, p := range pts {
			if p.block == b && p.idxKey == idxKey {
				if merge && p.side != side {
					return pts, true
				}
				p.vals = append(p.vals, m)
				found = true
				break
			}
		}
		if !found {
			region := -1
			pre := an.dom.PreNum(b)
			if pre < 0 {
				region = int(b.ID)
			}
			p := g.takePoint()
			p.region, p.pre, p.idxKey = region, pre, idxKey
			p.block, p.def, p.side = b, def, side
			p.vals = append(p.vals, m)
			pts = append(pts, p)
		}
	}
	return pts, false
}

func pointLess(a, b *defPoint) bool {
	if a.region != b.region {
		return a.region < b.region
	}
	if a.pre != b.pre {
		return a.pre < b.pre
	}
	return a.idxKey < b.idxKey
}

// sortPoints orders points for the sweep. Classes rarely exceed a few
// dozen definition points, where insertion sort beats the allocation and
// indirection of sort.Slice; large classes fall back to it.
func sortPoints(pts []*defPoint) {
	if len(pts) <= 64 {
		for i := 1; i < len(pts); i++ {
			p := pts[i]
			j := i - 1
			for j >= 0 && pointLess(p, pts[j]) {
				pts[j+1] = pts[j]
				j--
			}
			pts[j+1] = p
		}
		return
	}
	sort.Slice(pts, func(i, j int) bool { return pointLess(pts[i], pts[j]) })
}

// killsAtPoint reports whether a definition at point p Class-1-kills the
// still-earlier-defined victim, replicating the mode switch of Kills
// with defV = p's definition. The test reads only p (every member
// defined at one point shares its live-after set and block), which is
// what lets the sweep run it per point instead of per member pair.
func (an *Analysis) killsAtPoint(p *defPoint, victim ir.ValueID) bool {
	switch an.mode {
	case Exact:
		return an.liveAfterHas(p.def, victim)
	case Optimistic:
		return an.live.LiveOut(victim, p.block)
	default: // Pessimistic
		return an.live.LiveIn(victim, p.block) ||
			an.defs[victim].Block() == p.block
	}
}

// sweepCutoff is the class size (virtual members) at or below which the
// dominance engine answers with the pairwise expansion: at tiny k the
// O(k²) loop over memoized sparse-liveness queries is cheaper than
// mobilizing the sweep (point grouping, pooled sets, chain stack), and
// most classes stay tiny — the sweep earns its keep on the large pinned
// classes (SP ties, ABI chains, late-coalescing merges) where k² bites.
// The crossover was measured with BenchmarkInterferenceQueries; verdicts
// are identical on both sides of the cutoff (engines_test.go holds for
// any value of it).
const sweepCutoff = 8

func virtualCount(f *ir.Func, members []ir.ValueID) int {
	n := 0
	for _, m := range members {
		if !f.IsPhys(m) {
			n++
		}
	}
	return n
}

func (g *ResourceGraph) killedSweep(root ir.ValueID) *bitset.Set {
	an := g.An
	f := an.fn
	members := g.Res.Members(root)
	if virtualCount(f, members) <= sweepCutoff {
		return g.killedPairwise(root, members)
	}
	nv := f.NumValues()
	killed := bitset.New(nv)

	// Class 2: a φ member's replacement move at the end of predecessor i
	// clobbers every member live out of that predecessor other than the
	// incoming argument (the lost-copy self-kill included).
	for _, m := range members {
		if f.IsPhys(m) {
			continue
		}
		def := an.defs[m]
		if def == nil || def.Op() != ir.Phi {
			continue
		}
		blk := def.Block()
		for i, u := range def.Uses() {
			arg := u.Val
			for _, v := range members {
				if f.IsPhys(v) || v == arg || killed.Has(int(v)) {
					continue
				}
				if an.live.LiveOut(v, blk.Pred(i)) {
					killed.Add(int(v))
				}
			}
		}
	}

	// Class 1: dominance-ordered stack sweep. alive counts stack members
	// not yet killed — once it hits zero the per-point liveness tests are
	// skipped (early exit), though points still push for later groups.
	pts, _ := g.collectPoints(g.takeBuf(), members, 0, false)
	defer func() { g.putPoints(pts) }()
	sortPoints(pts)
	stack := g.stack[:0]
	defer func() { g.stack = stack[:0] }()
	alive := 0
	unkilledOf := func(p *defPoint) int {
		n := 0
		for _, m := range p.vals {
			if !killed.Has(int(m)) {
				n++
			}
		}
		return n
	}
	for _, p := range pts {
		if len(stack) > 0 && stack[0].region != p.region {
			stack, alive = stack[:0], 0
		}
		for len(stack) > 0 && !g.covers(stack[len(stack)-1], p) {
			alive -= unkilledOf(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
		}
		if alive > 0 {
			for _, q := range stack {
				for _, victim := range q.vals {
					if killed.Has(int(victim)) {
						continue
					}
					if an.killsAtPoint(p, victim) {
						killed.Add(int(victim))
						alive--
					}
				}
			}
		}
		alive += unkilledOf(p)
		stack = append(stack, p)
	}

	// Pinned-use clobbers: a use pinned to this resource writes it just
	// before its instruction, killing members live across that point.
	for _, site := range g.Sites {
		if g.Res.Find(site.Pin) != root {
			continue
		}
		for _, m := range members {
			if f.IsPhys(m) || killed.Has(int(m)) {
				continue
			}
			if site.kills(an, m) {
				killed.Add(int(m))
			}
		}
	}
	return killed
}

func (g *ResourceGraph) interfereSweep(ra, rb ir.ValueID) bool {
	an := g.An
	f := an.fn
	ma, mb := g.Res.Members(ra), g.Res.Members(rb)
	// The pairwise cost of Interfere is the PRODUCT of the class sizes
	// (one huge class probed against a singleton is only k queries), so
	// the cutoff is on the product.
	if virtualCount(f, ma)*virtualCount(f, mb) <= sweepCutoff*sweepCutoff {
		return g.interferePairwise(ra, rb, ma, mb)
	}
	killedA := g.KilledSet(ra)
	killedB := g.KilledSet(rb)
	nv := f.NumValues()

	// Shared definition points across the two classes interfere outright
	// (same instruction → strong; same block's φ prefix → Class 4).
	pts, collide := g.collectPoints(g.takeBuf(), ma, 0, true)
	if !collide {
		pts, collide = g.collectPoints(pts, mb, 1, true)
	}
	defer func() { g.putPoints(pts) }()
	if collide {
		return true
	}

	// Class 3: φs of different blocks must agree on arguments flowing
	// from shared predecessors. Only φ×φ cross pairs can trip this (and
	// same-block pairs already returned above), so the pairwise check
	// shrinks to the classes' φ members.
	for _, p := range pts {
		if p.idxKey != -1 || p.side != 0 {
			continue
		}
		for _, q := range pts {
			if q.idxKey != -1 || q.side != 1 {
				continue
			}
			for _, x := range p.vals {
				defX := an.defs[x]
				for _, y := range q.vals {
					defY := an.defs[y]
					for i, u := range defX.Uses() {
						j := defY.Block().PredIndex(defX.Block().Pred(i).ID)
						if j >= 0 && u.Val != defY.Use(j) {
							return true
						}
					}
				}
			}
		}
	}

	// aliveA/aliveB: virtual members not already killed within their own
	// class — the victim candidates (a kill already repaired is not a
	// *new* interference).
	aliveA := g.pool.Get(nv)
	aliveB := g.pool.Get(nv)
	defer g.pool.Put(aliveA)
	defer g.pool.Put(aliveB)
	for _, x := range ma {
		if !f.IsPhys(x) && !killedA.Has(int(x)) {
			aliveA.Add(int(x))
		}
	}
	for _, y := range mb {
		if !f.IsPhys(y) && !killedB.Has(int(y)) {
			aliveB.Add(int(y))
		}
	}

	// Class 2 across the merge: a φ member of one class clobbering an
	// alive member of the other at a predecessor exit.
	phiClobbers := func(members []ir.ValueID, victims *bitset.Set) bool {
		for _, m := range members {
			if f.IsPhys(m) {
				continue
			}
			def := an.defs[m]
			if def == nil || def.Op() != ir.Phi {
				continue
			}
			blk := def.Block()
			for i, u := range def.Uses() {
				pred := blk.Pred(i)
				for id := victims.NextSet(0); id >= 0; id = victims.NextSet(id + 1) {
					if ir.ValueID(id) != u.Val && an.live.LiveOut(ir.ValueID(id), pred) {
						return true
					}
				}
			}
		}
		return false
	}
	if phiClobbers(ma, aliveB) || phiClobbers(mb, aliveA) {
		return true
	}

	// Class 1 across the merge: one merged sweep over both classes'
	// definition points; a point kills an alive opposite-side ancestor ⇒
	// the merge creates a new interference.
	sortPoints(pts)
	stack := g.stack[:0]
	defer func() { g.stack = stack[:0] }()
	for _, p := range pts {
		if len(stack) > 0 && stack[0].region != p.region {
			stack = stack[:0]
		}
		for len(stack) > 0 && !g.covers(stack[len(stack)-1], p) {
			stack = stack[:len(stack)-1]
		}
		alive := aliveA
		if p.side == 0 {
			alive = aliveB
		}
		for _, q := range stack {
			if q.side == p.side {
				continue
			}
			for _, victim := range q.vals {
				if alive.Has(int(victim)) && an.killsAtPoint(p, victim) {
					return true
				}
			}
		}
		stack = append(stack, p)
	}

	// Pinned-use clobbers across the merge.
	for _, site := range g.Sites {
		rs := g.Res.Find(site.Pin)
		var victims *bitset.Set
		switch rs {
		case ra:
			victims = aliveB
		case rb:
			victims = aliveA
		default:
			continue
		}
		for id := victims.NextSet(0); id >= 0; id = victims.NextSet(id + 1) {
			if site.kills(an, ir.ValueID(id)) {
				return true
			}
		}
	}
	return false
}
