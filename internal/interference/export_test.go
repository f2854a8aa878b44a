package interference

import "math"

// PairwiseEverywhere is a sweep cutoff above any class size: graphs
// built under it answer every query with the pairwise oracle.
const PairwiseEverywhere = math.MaxInt32

// SetSweepCutoff sets the class size at or below which resource graphs
// built from now on take the pairwise expansion instead of the
// dominance sweep (0 sweeps every class with a virtual member), and
// returns a function restoring the previous cutoff. Tests that call it
// must not run in parallel.
func SetSweepCutoff(n int) (restore func()) {
	prev := sweepCutoff
	sweepCutoff = n
	return func() { sweepCutoff = prev }
}
