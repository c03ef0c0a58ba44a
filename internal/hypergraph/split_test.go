package hypergraph

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"shp/internal/rng"
)

// inducedByDataRef is the induced-subgraph routine SplitBySide replaced — a
// |D|-sized id map, a count over the subset's reverse lists, a filter of
// every kept hyperedge's full member list, then a scattered reverse CSR —
// kept as the reference the kernel is checked against. It also returns the
// kept hyperedges' ids in g.
func inducedByDataRef(g *Bipartite, dataIDs []int32, minQueryDegree int) (*Bipartite, []int32) {
	dmap := make([]int32, g.numD)
	for i := range dmap {
		dmap[i] = -1
	}
	monotone := true
	for newID, d := range dataIDs {
		dmap[d] = int32(newID)
		if newID > 0 && d <= dataIDs[newID-1] {
			monotone = false
		}
	}
	qCount := make([]int32, g.numQ)
	for _, d := range dataIDs {
		for _, q := range g.DataNeighbors(d) {
			qCount[q]++
		}
	}
	keptQ := make([]int32, 0)
	for q := 0; q < g.numQ; q++ {
		if int(qCount[q]) >= minQueryDegree {
			keptQ = append(keptQ, int32(q))
		}
	}
	out := &Bipartite{numQ: len(keptQ), numD: len(dataIDs)}
	if g.dWeight != nil {
		out.dWeight = make([]int32, len(dataIDs))
		for i, d := range dataIDs {
			out.dWeight[i] = g.dWeight[d]
		}
	}
	if g.qWeight != nil {
		out.qWeight = make([]int32, len(keptQ))
		for i, q := range keptQ {
			out.qWeight[i] = g.qWeight[q]
		}
	}
	out.qOff = make([]int64, len(keptQ)+1)
	var total int64
	for i, q := range keptQ {
		total += int64(qCount[q])
		out.qOff[i+1] = total
	}
	out.qAdj = make([]int32, total)
	for i, q := range keptQ {
		dst := out.qAdj[out.qOff[i]:out.qOff[i+1]]
		n := 0
		for _, d := range g.QueryNeighbors(q) {
			if nd := dmap[d]; nd >= 0 {
				dst[n] = nd
				n++
			}
		}
		if !monotone {
			sort.Slice(dst, func(a, b int) bool { return dst[a] < dst[b] })
		}
	}
	out.rebuildReverse()
	return out, keptQ
}

// split calls SplitBySide the way its callers do, with the per-side member
// counts of side, which split counts here, and all-zero next sides for a
// wanted child given none. Every child comes back with its hyperedges'
// member counts under its next sides: split checks them against a recount of
// the child's forward adjacency.
func split(tb testing.TB, g *Bipartite, side []int8, next [2][]int8, want [2]bool, minDeg int) [2]*Bipartite {
	tb.Helper()
	cnt := [2][]int32{make([]int32, g.numQ), make([]int32, g.numQ)}
	for q := range g.numQ {
		for _, d := range g.QueryNeighbors(int32(q)) {
			if s := side[d]; s == 0 || s == 1 {
				cnt[s][q]++
			}
		}
	}
	var nd [2]int
	for _, s := range side {
		if s == 0 || s == 1 {
			nd[s]++
		}
	}
	for c := range next {
		if want[c] && next[c] == nil {
			next[c] = make([]int8, nd[c])
		}
	}
	out, got := g.SplitBySide(side, cnt, next, want, minDeg)
	for c, ch := range out {
		if ch == nil {
			continue
		}
		for q := range ch.numQ {
			var n [2]int32
			for _, d := range ch.QueryNeighbors(int32(q)) {
				n[next[c][d]]++
			}
			if got[c][0][q] != n[0] || got[c][1][q] != n[1] {
				tb.Fatalf("child %d hyperedge %d: counts under next (%d, %d), recount (%d, %d)", c, q, got[c][0][q], got[c][1][q], n[0], n[1])
			}
		}
	}
	return out
}

// sameGraph fails unless got and want are the same compact graph array for
// array, cached maximum degree included, and got's arrays are allocated at
// exact size.
func sameGraph(t *testing.T, what string, got, want *Bipartite) {
	t.Helper()
	sameArrays(t, what, got, want)
	if cap(got.qAdj) != len(got.qAdj) || cap(got.dAdj) != len(got.dAdj) || cap(got.qOff) != len(got.qOff) || cap(got.dOff) != len(got.dOff) {
		t.Fatalf("%s: arrays not allocated at exact size", what)
	}
}

// sameArrays is sameGraph without the allocation check.
func sameArrays(t *testing.T, what string, got, want *Bipartite) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	switch {
	case got.numQ != want.numQ || got.numD != want.numD:
		t.Fatalf("%s: %dx%d, want %dx%d", what, got.numQ, got.numD, want.numQ, want.numD)
	case !slices.Equal(got.qOff, want.qOff) || !slices.Equal(got.qAdj, want.qAdj):
		t.Fatalf("%s: forward CSR differs", what)
	case !slices.Equal(got.dOff, want.dOff) || !slices.Equal(got.dAdj, want.dAdj):
		t.Fatalf("%s: reverse CSR differs", what)
	case !slices.Equal(got.dWeight, want.dWeight) || (got.dWeight == nil) != (want.dWeight == nil):
		t.Fatalf("%s: data weights differ", what)
	case !slices.Equal(got.qWeight, want.qWeight) || (got.qWeight == nil) != (want.qWeight == nil):
		t.Fatalf("%s: query weights differ", what)
	case got.maxQDeg != want.maxQDeg || got.maxQDegCount != want.maxQDegCount:
		t.Fatalf("%s: cached max degree %d×%d, want %d×%d", what, got.maxQDeg, got.maxQDegCount, want.maxQDeg, want.maxQDegCount)
	}
}

// splitFixture is a random graph in the requested shape: optionally with
// data and query weights, optionally pushed into the mutable layout by a
// delta that removes every seventh hyperedge and adds one.
func splitFixture(t *testing.T, seed uint64, weighted, mutable bool) *Bipartite {
	t.Helper()
	const numQ, numD = 60, 90
	r := rng.New(seed)
	b := NewBuilder(numQ, numD)
	for q := 0; q < numQ; q++ {
		for i := r.Intn(7); i > 0; i-- { // 0..6 members: empty and single-member hyperedges included
			b.AddEdge(int32(q), int32(r.Intn(numD)))
		}
	}
	if weighted {
		dw, qw := make([]int32, numD), make([]int32, numQ)
		for i := range dw {
			dw[i] = int32(1 + r.Intn(9))
		}
		for i := range qw {
			qw[i] = int32(1 + r.Intn(5))
		}
		b.SetDataWeights(dw).SetQueryWeights(qw)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if mutable {
		d := NewDelta(g.NumQueries(), g.NumData())
		for q := int32(0); q < numQ; q += 7 {
			d.RemoveHyperedge(q)
		}
		d.AddHyperedge(1, 2, 80, 81)
		if err := g.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestSplitBySideMatchesInducedReference is the differential test of the
// split kernel: for every graph shape and every kind of cut, both children
// must be array for array what the replaced induced-subgraph routine returns for
// that side's vertices, and a child that was not asked for must not be
// built. Each built child is given random next sides, so split also checks
// the counts the fill hands back.
func TestSplitBySideMatchesInducedReference(t *testing.T) {
	cuts := map[string]func(r *rng.RNG, d int) int8{
		"random":      func(r *rng.RNG, _ int) int8 { return int8(r.Intn(2)) },
		"all-left":    func(*rng.RNG, int) int8 { return 0 },
		"all-right":   func(*rng.RNG, int) int8 { return 1 },
		"lone-right":  func(_ *rng.RNG, d int) int8 { return int8(min(d%11, 1) ^ 1) }, // one vertex in 11: hyperedges fall under 2 members on the right only
		"with-others": func(r *rng.RNG, _ int) int8 { return int8(r.Intn(3)) - 1 },    // -1 belongs to neither child
	}
	for _, weighted := range []bool{false, true} {
		for _, mutable := range []bool{false, true} {
			for name, cut := range cuts {
				for seed := uint64(1); seed <= 4; seed++ {
					g := splitFixture(t, seed, weighted, mutable)
					r := rng.New(seed ^ 0x51de)
					side := make([]int8, g.NumData())
					var ids [2][]int32
					for d := range side {
						side[d] = cut(r, d)
						if s := side[d]; s >= 0 {
							ids[s] = append(ids[s], int32(d))
						}
					}
					var next [2][]int8
					for c := range next {
						next[c] = make([]int8, len(ids[c]))
						for i := range next[c] {
							next[c][i] = int8(r.Intn(2))
						}
					}
					for _, want := range [][2]bool{{true, true}, {true, false}, {false, true}} {
						got := split(t, g, side, next, want, 2)
						for c := range got {
							what := fmt.Sprintf("weighted=%v mutable=%v cut=%s seed=%d want=%v child %d", weighted, mutable, name, seed, want, c)
							if !want[c] {
								if got[c] != nil {
									t.Fatalf("%s: built although not asked for", what)
								}
								continue
							}
							ref, _ := inducedByDataRef(g, ids[c], 2)
							sameGraph(t, what, got[c], ref)
						}
					}
				}
			}
		}
	}
}

// TestSplitBySideMinDegreesMatchReference checks the minimum degrees other
// than recursive bisection's 2 — 0 and 1 keep empty and single-member
// hyperedges, PruneTrivialQueries passes whatever it is given — and the empty
// subset against the same reference.
func TestSplitBySideMinDegreesMatchReference(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		for _, mutable := range []bool{false, true} {
			for seed := uint64(1); seed <= 6; seed++ {
				g := splitFixture(t, seed, weighted, mutable)
				r := rng.New(seed ^ 0xbeef)
				var subset []int32
				for d := 0; d < g.NumData(); d++ {
					if r.Intn(3) > 0 {
						subset = append(subset, int32(d))
					}
				}
				for _, ids := range [][]int32{subset, nil} {
					for minDeg := 0; minDeg <= 3; minDeg++ {
						what := fmt.Sprintf("weighted=%v mutable=%v seed=%d minDeg=%d |subset|=%d", weighted, mutable, seed, minDeg, len(ids))
						got := split(t, g, onlySide0(g.NumData(), ids...), [2][]int8{}, [2]bool{true, false}, minDeg)[0]
						ref, _ := inducedByDataRef(g, ids, minDeg)
						sameGraph(t, what, got, ref)
					}
				}
			}
		}
	}
}

// TestPruneMatchesReference checks PruneTrivialQueries against the same
// reference with every data vertex kept: same arrays, g itself when nothing
// is below the minimum.
func TestPruneMatchesReference(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		for _, mutable := range []bool{false, true} {
			g := splitFixture(t, 3, weighted, mutable)
			all := make([]int32, g.NumData())
			for d := range all {
				all[d] = int32(d)
			}
			for minDeg := 0; minDeg <= 4; minDeg++ {
				what := fmt.Sprintf("weighted=%v mutable=%v minDeg=%d", weighted, mutable, minDeg)
				got := PruneTrivialQueries(g, minDeg)
				if minDeg == 0 {
					if got != g {
						t.Fatalf("%s: nothing to prune, yet a new graph was built", what)
					}
					continue
				}
				ref, _ := inducedByDataRef(g, all, minDeg)
				sameGraph(t, what, got, ref)
			}
		}
	}
}
