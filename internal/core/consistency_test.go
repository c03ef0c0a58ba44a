package core

import (
	"testing"
	"testing/quick"
)

// TestIncrementalCountsStayConsistent is a regression test for the
// double-undo bug: after any number of refinement iterations, the
// incrementally maintained per-query side counts must equal a from-scratch
// recount, and side weights must match the side array.
func TestIncrementalCountsStayConsistent(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		g := randomBipartite(t, seed, 40, 60, 300)
		opts := Options{K: 2, P: 0.5, MaxIters: 8}.withDefaults()
		b := coldBisection(g, opts, seed, 0, 0, 1, 1, 0.5, 0.01, 0, nil)
		b.run()
		// From-scratch recount.
		for q := 0; q < g.NumQueries(); q++ {
			var c0, c1 int32
			for _, d := range g.QueryNeighbors(int32(q)) {
				if b.side[d] == 0 {
					c0++
				} else {
					c1++
				}
			}
			if b.n[0][q] != c0 || b.n[1][q] != c1 {
				return false
			}
		}
		var w0, w1 int64
		for v := 0; v < g.NumData(); v++ {
			if b.side[v] == 0 {
				w0++
			} else {
				w1++
			}
		}
		return b.w[0] == w0 && b.w[1] == w1
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDirectWeightsStayConsistent checks the same invariant for the k-way
// refiner's bucket weights.
func TestDirectWeightsStayConsistent(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		g := randomBipartite(t, seed, 40, 60, 300)
		opts := Options{K: 5, P: 0.5, MaxIters: 8, Direct: true}.withDefaults()
		st := mustDirectState(t, g, opts, seed)
		st.run()
		recount := make([]int64, 5)
		for v := 0; v < g.NumData(); v++ {
			recount[st.bucket[v]]++
		}
		for c := 0; c < 5; c++ {
			if st.bucketW[c] != recount[c] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCapsHoldThroughoutRefinement verifies the hard balance guarantee the
// strict clamp provides (within one vertex weight of the cap).
func TestCapsHoldThroughoutRefinement(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		g := randomBipartite(t, seed, 60, 100, 500)
		opts := Options{K: 2, P: 0.5, Epsilon: 0.05, MaxIters: 12}.withDefaults()
		b := coldBisection(g, opts, seed, 0, 0, 1, 1, 0.5, opts.Epsilon, 0, nil)
		b.run()
		// Allow one max-weight vertex of slack (trim passes stop at first
		// fit and the two caps can be marginally incompatible).
		return float64(b.w[0]) <= b.capW[0]+1 && float64(b.w[1]) <= b.capW[1]+1
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}
