package sreedhar

import (
	"math/rand"
	"slices"
	"testing"

	"outofssa/internal/ir"
)

// scanMembers is the original members: a scan of every value of f for
// the ones sharing v's root, physical values skipped. It is the oracle
// for the per-root member lists.
func scanMembers(f *ir.Func, c *classes, v ir.ValueID) []ir.ValueID {
	root := c.find(int(v))
	var out []ir.ValueID
	for id := 0; id < f.NumValues(); id++ {
		w := ir.ValueID(id)
		if f.IsPhys(w) {
			continue
		}
		if c.find(id) == root {
			out = append(out, w)
		}
	}
	return out
}

// TestClassesMatchScan drives the union-find with random unions, admits
// new values mid-run the way copy insertion does, and includes physical
// registers. After every step each value's member list must equal the
// full scan, and each root must be the one a plain parent[rb] = ra
// union-find (no path compression) picks.
func TestClassesMatchScan(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := ir.NewFunc("classes")
		vals := []ir.ValueID{f.Target.R[0], f.Target.R[1], f.Target.SP}
		for i := 0; i < 8; i++ {
			vals = append(vals, f.NewValue(""))
		}
		c := newClasses(f)
		var ref []int
		refFind := func(id int) int {
			for len(ref) <= id {
				ref = append(ref, len(ref))
			}
			for ref[id] != id {
				id = ref[id]
			}
			return id
		}
		pick := func() ir.ValueID { return vals[rng.Intn(len(vals))] }
		for step := 0; step < 80; step++ {
			if rng.Intn(5) == 0 {
				vals = append(vals, f.NewValue("")) // admitted lazily by the next find
			}
			a, b := pick(), pick()
			c.union(a, b)
			if ra, rb := refFind(int(a)), refFind(int(b)); ra != rb {
				ref[rb] = ra
			}
			for id := 0; id < f.NumValues(); id++ {
				v := ir.ValueID(id)
				if got, want := c.findValue(v), ir.ValueID(refFind(id)); got != want {
					t.Fatalf("seed %d step %d: root of %d = %d, want %d", seed, step, v, got, want)
				}
				if got, want := c.members(v), scanMembers(f, c, v); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: members(%d) = %v, want %v", seed, step, v, got, want)
				}
			}
		}
	}
}
