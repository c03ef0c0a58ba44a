package core

import (
	"fmt"
	"slices"
	"testing"

	"shp/internal/hypergraph"
	"shp/internal/rng"
)

// TestBucketSetDrain pins the bitset contract rebuildVertex and the
// neighbor-data masks lean on, at word-boundary sizes: draining yields exactly the marked
// buckets, ascending, once each; afterwards the set is empty, and so are
// k-indexed accumulators zeroed from inside the drain loop.
func TestBucketSetDrain(t *testing.T) {
	for _, k := range []int{1, 2, 63, 64, 65, 128, 129, 1000} {
		r := rng.New(uint64(k))
		set := newBucketSet(k)
		if want := (k + 63) / 64; len(set) != want {
			t.Fatalf("k=%d: %d words, want %d", k, len(set), want)
		}
		cnt := make([]int32, k)
		for round := 0; round < 50; round++ {
			want := map[int32]int32{}
			marks := r.Intn(2*k + 1) // from empty to mostly full, with repeats
			if round == 0 {
				marks = 0
			}
			for i := 0; i < marks; i++ {
				b := int32(r.Intn(k))
				set.add(b)
				cnt[b]++
				want[b]++
			}
			if round == 1 { // both ends of the id space
				for _, b := range []int32{0, int32(k - 1)} {
					set.add(b)
					cnt[b]++
					want[b]++
				}
			}
			if set.count() != len(want) {
				t.Fatalf("k=%d: count %d, want %d", k, set.count(), len(want))
			}
			var got []int32
			for b := range set.drain {
				if cnt[b] != want[b] {
					t.Fatalf("k=%d bucket %d: count %d, want %d", k, b, cnt[b], want[b])
				}
				cnt[b] = 0
				got = append(got, b)
			}
			if !slices.IsSorted(got) || len(got) != len(want) {
				t.Fatalf("k=%d: drained %v, want the %d marked buckets ascending", k, got, len(want))
			}
			if set.count() != 0 || slices.Max(set) != 0 {
				t.Fatalf("k=%d: set not empty after drain: %v", k, set)
			}
			if slices.Max(cnt) != 0 || slices.Min(cnt) != 0 {
				t.Fatalf("k=%d: accumulators not empty after drain", k)
			}
		}
	}
}

// naiveProposalState computes vertex v's Equation 1 state straight from the
// definition, with maps and a fresh count of every adjacent query's members
// per bucket — no neighbor data, no scratch, no ordering assumptions:
//
//	base   = Σ_q wq·T[n_cur(q)−1]
//	acc_b  = Σ_{q: n_b(q)>0} wq·(T[n_b(q)] − T[0])     for b ≠ cur
//	refs_b = |{q ∈ N(v): n_b(q) > 0}|
//
// The sums are integer gain units, so they must equal the engine's in any
// summation order.
func naiveProposalState(st *directState, v int32) (int64, []proposalCand) {
	cur := st.bucket[v]
	var base int64
	acc := map[int32]int64{}
	refs := map[int32]int32{}
	for _, q := range st.g.DataNeighbors(v) {
		wq := int64(st.g.QueryWeight(q))
		n := map[int32]int32{}
		for _, u := range st.g.QueryNeighbors(q) {
			n[st.bucket[u]]++
		}
		for b := int32(0); b < int32(st.k); b++ {
			switch {
			case n[b] == 0:
			case b == cur:
				base += wq * st.tables.T[n[b]-1]
			default:
				acc[b] += wq * (st.tables.T[n[b]] - st.tables.T[0])
				refs[b]++
			}
		}
	}
	var cands []proposalCand
	for b := int32(0); b < int32(st.k); b++ {
		if refs[b] > 0 {
			cands = append(cands, proposalCand{b: b, refs: refs[b], acc: acc[b]})
		}
	}
	return base, cands
}

// rowInvariantViolation returns a description of the first row of nd that
// breaks the layout's invariant — mask bit b set exactly when count b is
// positive, no count negative — or "" when every row holds it.
func rowInvariantViolation(nd *ndState) string {
	for q := range int32(len(nd.cnt) / nd.k) {
		r := nd.row(q)
		m, c := r.mask, r.cnt
		for b := range int32(nd.k) {
			if bit := m[b>>6]>>(b&63)&1 == 1; bit != (c[b] > 0) || c[b] < 0 {
				return fmt.Sprintf("query %d bucket %d: mask bit %v, count %d", q, b, bit, c[b])
			}
		}
		for b := nd.k; b < nd.w*64; b++ {
			if m[b>>6]>>(b&63)&1 == 1 {
				return fmt.Sprintf("query %d: mask bit %d set beyond k = %d", q, b, nd.k)
			}
		}
	}
	return ""
}

// TestRebuildVertexMatchesEquation1 checks both weight arms of rebuildVertex
// against the naive reference on small random graphs, that the rebuild
// leaves its scratch empty (the drain's half of the contract), and that the
// neighbor-data rows it reads hold the mask ⇔ count invariant. The wide arms
// sit on the mask's word boundaries: at k = 64 bucket 63 is the last bit of
// the only word, at k = 128 half the own buckets are in the second word, and
// weightedK70 takes the weighted arm across two words.
func TestRebuildVertexMatchesEquation1(t *testing.T) {
	arms := []struct {
		name  string
		graph func(seed uint64) *hypergraph.Bipartite
		k     int
	}{
		{"unit", func(s uint64) *hypergraph.Bipartite { return randomBipartite(t, s, 40, 70, 400) }, 6},
		{"weighted", func(s uint64) *hypergraph.Bipartite { return weightedBipartite(t, s, 40, 70, 400) }, 6},
		// Past one bitset word, with most buckets empty around any vertex.
		{"unitK70", func(s uint64) *hypergraph.Bipartite { return randomBipartite(t, s, 60, 300, 900) }, 70},
		// 320 records cut into 64 buckets of five: the last bucket is filled.
		{"unitK64", func(s uint64) *hypergraph.Bipartite { return randomBipartite(t, s, 60, 320, 900) }, 64},
		{"unitK128", func(s uint64) *hypergraph.Bipartite { return randomBipartite(t, s, 60, 300, 900) }, 128},
		{"weightedK70", func(s uint64) *hypergraph.Bipartite { return weightedBipartite(t, s, 60, 300, 900) }, 70},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			lastBit, highOwn := false, false
			for seed := uint64(1); seed <= 5; seed++ {
				g := arm.graph(seed)
				opts := Options{K: arm.k, P: 0.5, Direct: true}.withDefaults()
				st := mustDirectState(t, g, opts, seed)
				st.buildNeighborData()
				if bad := rowInvariantViolation(st.nd); bad != "" {
					t.Fatalf("seed %d: %s", seed, bad)
				}
				s := &st.scratch
				for v := 0; v < g.NumData(); v++ {
					st.rebuildVertex(v)
					base, cands := naiveProposalState(st, int32(v))
					if st.propBase[v] != base {
						t.Fatalf("seed %d vertex %d: base %v, reference %v", seed, v, st.propBase[v], base)
					}
					if !slices.Equal(st.cands.list(int32(v)), cands) {
						t.Fatalf("seed %d vertex %d: candidates %v, reference %v", seed, v, st.cands.list(int32(v)), cands)
					}
					if s.set.count() != 0 || s.own.count() != 0 || slices.Max(s.refs) != 0 ||
						slices.Max(s.acc) != 0 || slices.Min(s.acc) != 0 {
						t.Fatalf("seed %d vertex %d: rebuild scratch not empty afterwards", seed, v)
					}
					if len(g.DataNeighbors(int32(v))) > 0 {
						lastBit = lastBit || st.bucket[v] == 63
						highOwn = highOwn || st.bucket[v] >= 64
					}
				}
			}
			if arm.k >= 64 && !lastBit || arm.k > 64 && !highOwn {
				t.Fatalf("k = %d: no rebuilt vertex sat on bucket 63 (%v) or past the first word (%v)", arm.k, lastBit, highOwn)
			}
		})
	}
}
