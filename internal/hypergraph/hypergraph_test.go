package hypergraph

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"shp/internal/rng"
)

// figure1 builds the paper's Figure 1 example: queries {1,2,6}, {1,2,3,4},
// {4,5,6} over six data vertices (0-indexed here).
func figure1(t *testing.T) *Bipartite {
	t.Helper()
	g, err := FromHyperedges(6, [][]int32{
		{0, 1, 5},
		{0, 1, 2, 3},
		{3, 4, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFigure1Shape(t *testing.T) {
	g := figure1(t)
	if g.NumQueries() != 3 || g.NumData() != 6 || g.NumEdges() != 10 {
		t.Fatalf("got Q=%d D=%d E=%d", g.NumQueries(), g.NumData(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.QueryNeighbors(1); !reflect.DeepEqual(got, []int32{0, 1, 2, 3}) {
		t.Fatalf("query 1 neighbors = %v", got)
	}
	if got := g.DataNeighbors(0); !reflect.DeepEqual(got, []int32{0, 1}) {
		t.Fatalf("data 0 neighbors = %v", got)
	}
	if g.QueryDegree(0) != 3 || g.DataDegree(3) != 2 {
		t.Fatal("degree accessors wrong")
	}
}

func TestBuilderDeduplicates(t *testing.T) {
	g, err := NewBuilder(1, 3).
		AddEdge(0, 1).AddEdge(0, 1).AddEdge(0, 2).AddEdge(0, 1).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("duplicates not removed: %d edges", g.NumEdges())
	}
}

// buildRef is Builder.Build's assembly as it was before Build handed its
// incidences to FromCSR — one global sort of the incidence list,
// deduplication, forward fill, counting-sort reverse fill — kept as the
// reference Build (and through it hgio's differential reader test) is checked
// against. Ids and weight lengths must be valid.
func buildRef(b *Builder) *Bipartite {
	g := &Bipartite{numQ: b.numQ, numD: b.numD}
	if b.weights != nil {
		g.dWeight = make([]int32, b.numD)
		copy(g.dWeight, b.weights)
	}
	if b.qWeights != nil {
		g.qWeight = make([]int32, b.numQ)
		copy(g.qWeight, b.qWeights)
	}
	edges := make([]Edge, len(b.edges))
	copy(edges, b.edges)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Q != edges[j].Q {
			return edges[i].Q < edges[j].Q
		}
		return edges[i].D < edges[j].D
	})
	uniq := edges[:0]
	for i, e := range edges {
		if i > 0 && e == edges[i-1] {
			continue
		}
		uniq = append(uniq, e)
	}
	edges = uniq

	g.qOff = make([]int64, b.numQ+1)
	g.qAdj = make([]int32, len(edges))
	for _, e := range edges {
		g.qOff[e.Q+1]++
	}
	for q := 0; q < b.numQ; q++ {
		g.qOff[q+1] += g.qOff[q]
	}
	for i, e := range edges {
		g.qAdj[i] = e.D // edges sorted by (Q, D): positions align with qOff
	}
	g.dOff = make([]int64, b.numD+1)
	g.dAdj = make([]int32, len(edges))
	for _, e := range edges {
		g.dOff[e.D+1]++
	}
	for d := 0; d < b.numD; d++ {
		g.dOff[d+1] += g.dOff[d]
	}
	cursor := make([]int64, b.numD)
	copy(cursor, g.dOff[:b.numD])
	for _, e := range edges { // edges sorted by Q, so each dAdj list ends up sorted by Q
		g.dAdj[cursor[e.D]] = e.Q
		cursor[e.D]++
	}
	g.computeMaxQueryDegree()
	return g
}

// TestBuildMatchesReference is the differential test of the one assembly
// path: on random incidence lists in random order, with duplicates, empty
// hyperedges, isolated data vertices and each combination of the two weight
// vectors, Build returns array for array what the body it replaced returns,
// and leaves the builder as it found it.
func TestBuildMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := rng.New(seed)
		numQ, numD := r.Intn(30), 1+r.Intn(40)
		b := NewBuilder(numQ, numD)
		if numQ > 0 {
			for i := r.Intn(200); i > 0; i-- {
				// Half the id ranges, so hyperedges stay empty, vertices
				// isolated, and duplicates are common.
				b.AddEdge(int32(r.Intn((numQ+1)/2)), int32(r.Intn((numD+1)/2)))
			}
		}
		if seed&1 != 0 {
			w := make([]int32, numD)
			for i := range w {
				w[i] = int32(1 + r.Intn(9))
			}
			b.SetDataWeights(w)
		}
		if seed&2 != 0 {
			w := make([]int32, numQ)
			for i := range w {
				w[i] = int32(1 + r.Intn(5))
			}
			b.SetQueryWeights(w)
		}
		before := slices.Clone(b.edges)
		got, err := b.Build()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !slices.Equal(before, b.edges) {
			t.Fatalf("seed %d: Build reordered the builder's incidences", seed)
		}
		sameArrays(t, fmt.Sprintf("seed %d (%d×%d, %d incidences)", seed, numQ, numD, len(before)), got, buildRef(b))
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	if _, err := NewBuilder(1, 1).AddEdge(0, 5).Build(); err == nil {
		t.Fatal("expected error for out-of-range data id")
	}
	if _, err := NewBuilder(1, 1).AddEdge(3, 0).Build(); err == nil {
		t.Fatal("expected error for out-of-range query id")
	}
	if _, err := NewBuilder(1, 1).AddEdge(0, -1).Build(); err == nil {
		t.Fatal("expected error for negative id")
	}
}

func TestBuilderWeights(t *testing.T) {
	g, err := NewBuilder(1, 2).AddEdge(0, 0).SetDataWeights([]int32{3, 5}).Build()
	if err != nil {
		t.Fatal(err)
	}
	if !g.Weighted() || g.DataWeight(0) != 3 || g.DataWeight(1) != 5 {
		t.Fatal("weights not preserved")
	}
	if g.TotalDataWeight() != 8 {
		t.Fatalf("TotalDataWeight = %d", g.TotalDataWeight())
	}
	if _, err := NewBuilder(1, 2).SetDataWeights([]int32{1}).Build(); err == nil {
		t.Fatal("expected weight length error")
	}
}

func TestUnweightedDefaults(t *testing.T) {
	g := figure1(t)
	if g.Weighted() || g.DataWeight(2) != 1 || g.TotalDataWeight() != 6 {
		t.Fatal("unweighted defaults wrong")
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := figure1(t)
	edges := g.Edges()
	g2, err := FromEdges(g.NumQueries(), g.NumData(), edges)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Edges(), g2.Edges()) {
		t.Fatal("edge round trip changed the graph")
	}
}

func TestStats(t *testing.T) {
	g := figure1(t)
	s := g.ComputeStats()
	if s.NumEdges != 10 || s.MaxQueryDeg != 4 || s.MaxDataDeg != 2 || s.IsolatedData != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if s.AvgQueryDeg < 3.3 || s.AvgQueryDeg > 3.4 {
		t.Fatalf("AvgQueryDeg = %v", s.AvgQueryDeg)
	}
}

func TestIsolatedDataCounted(t *testing.T) {
	g, err := FromEdges(1, 4, []Edge{{0, 0}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if s := g.ComputeStats(); s.IsolatedData != 2 {
		t.Fatalf("IsolatedData = %d, want 2", s.IsolatedData)
	}
}

func TestPruneTrivialQueries(t *testing.T) {
	g, err := FromHyperedges(5, [][]int32{
		{0},       // degree 1: pruned
		{1, 2},    // kept
		{},        // degree 0: pruned
		{2, 3, 4}, // kept
	})
	if err != nil {
		t.Fatal(err)
	}
	p := PruneTrivialQueries(g, 2)
	if p.NumQueries() != 2 || p.NumData() != 5 || p.NumEdges() != 5 {
		t.Fatalf("pruned shape Q=%d D=%d E=%d", p.NumQueries(), p.NumData(), p.NumEdges())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.QueryNeighbors(1), []int32{2, 3, 4}) {
		t.Fatal("pruned adjacency wrong")
	}
	// No-op prune returns the same graph.
	if q := PruneTrivialQueries(p, 2); q != p {
		t.Fatal("no-op prune should return the receiver")
	}
}

// onlySide0 is the side vector that puts the given data vertices on side 0
// and every other vertex of an n-vertex graph in neither child.
func onlySide0(n int, ids ...int32) []int8 {
	side := make([]int8, n)
	for d := range side {
		side[d] = -1
	}
	for _, d := range ids {
		side[d] = 0
	}
	return side
}

func TestSplitBySideFigure1(t *testing.T) {
	g := figure1(t)
	// Take the right half {3,4,5} (0-indexed data ids).
	sub := split(t, g, onlySide0(6, 3, 4, 5), [2][]int8{{0, 1, 1}}, [2]bool{true, false}, 2)[0]
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	// Only query 2 = {3,4,5} retains >= 2 members; query 0 has one member (5),
	// query 1 has one member (3).
	if sub.NumQueries() != 1 || sub.NumData() != 3 {
		t.Fatalf("kept %d queries over %d data vertices", sub.NumQueries(), sub.NumData())
	}
	if !reflect.DeepEqual(sub.QueryNeighbors(0), []int32{0, 1, 2}) {
		t.Fatalf("relabeled neighbors = %v", sub.QueryNeighbors(0))
	}
}

func TestSplitBySidePreservesWeights(t *testing.T) {
	g, err := NewBuilder(2, 3).AddHyperedge(0, 0, 1, 2).AddHyperedge(1, 0, 2).
		SetDataWeights([]int32{7, 8, 9}).SetQueryWeights([]int32{4, 5}).Build()
	if err != nil {
		t.Fatal(err)
	}
	sub := split(t, g, []int8{1, 0, 1}, [2][]int8{{0}, {1, 0}}, [2]bool{true, true}, 2)
	if sub[0].DataWeight(0) != 8 || sub[1].DataWeight(0) != 7 || sub[1].DataWeight(1) != 9 {
		t.Fatal("split children's data weights wrong")
	}
	// Side 0 holds one vertex, so it keeps no hyperedge; side 1 keeps both.
	if sub[0].NumQueries() != 0 || sub[1].QueryWeight(0) != 4 || sub[1].QueryWeight(1) != 5 {
		t.Fatal("split children's query weights wrong")
	}
}

// randomGraph builds a random bipartite graph for property tests.
func randomGraph(seed uint64, numQ, numD, edges int) *Bipartite {
	r := rng.New(seed)
	b := NewBuilder(numQ, numD)
	for i := 0; i < edges; i++ {
		b.AddEdge(int32(r.Intn(numQ)), int32(r.Intn(numD)))
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func TestPropertyCSRSymmetry(t *testing.T) {
	// The two CSR directions must describe the same incidence set.
	if err := quick.Check(func(seed uint64) bool {
		g := randomGraph(seed, 20, 30, 100)
		if g.Validate() != nil {
			return false
		}
		var fromQ, fromD []Edge
		for q := 0; q < g.NumQueries(); q++ {
			for _, d := range g.QueryNeighbors(int32(q)) {
				fromQ = append(fromQ, Edge{int32(q), d})
			}
		}
		for d := 0; d < g.NumData(); d++ {
			for _, q := range g.DataNeighbors(int32(d)) {
				fromD = append(fromD, Edge{q, int32(d)})
			}
		}
		less := func(es []Edge) func(i, j int) bool {
			return func(i, j int) bool {
				if es[i].Q != es[j].Q {
					return es[i].Q < es[j].Q
				}
				return es[i].D < es[j].D
			}
		}
		sort.Slice(fromQ, less(fromQ))
		sort.Slice(fromD, less(fromD))
		return reflect.DeepEqual(fromQ, fromD)
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDegreeSumsMatchEdges(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		g := randomGraph(seed, 15, 25, 80)
		var qSum, dSum int64
		for q := 0; q < g.NumQueries(); q++ {
			qSum += int64(g.QueryDegree(int32(q)))
		}
		for d := 0; d < g.NumData(); d++ {
			dSum += int64(g.DataDegree(int32(d)))
		}
		return qSum == g.NumEdges() && dSum == g.NumEdges()
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySplitEdgesAreSubset(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		g := randomGraph(seed, 15, 25, 80)
		r := rng.New(seed ^ 0xabcdef)
		var subset []int32
		for d := 0; d < g.NumData(); d++ {
			if r.Bool() {
				subset = append(subset, int32(d))
			}
		}
		side := onlySide0(g.NumData(), subset...)
		sub := split(t, g, side, [2][]int8{}, [2]bool{true, false}, 2)[0]
		if sub.Validate() != nil || sub.NumData() != len(subset) {
			return false
		}
		// The kept hyperedges are, in order, those with >= 2 members in the
		// subset, and each keeps exactly those members.
		nq := int32(0)
		for q := 0; q < g.NumQueries(); q++ {
			var inside []int32
			for _, d := range g.QueryNeighbors(int32(q)) {
				if side[d] == 0 {
					inside = append(inside, d)
				}
			}
			if len(inside) < 2 {
				continue
			}
			if int(nq) >= sub.NumQueries() || sub.QueryDegree(nq) != len(inside) {
				return false
			}
			for i, nd := range sub.QueryNeighbors(nq) {
				if subset[nd] != inside[i] {
					return false
				}
			}
			nq++
		}
		return int(nq) == sub.NumQueries()
	}, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxQueryDegree(t *testing.T) {
	g := figure1(t)
	if g.MaxQueryDegree() != 4 {
		t.Fatalf("MaxQueryDegree = %d", g.MaxQueryDegree())
	}
	empty, _ := FromEdges(0, 0, nil)
	if empty.MaxQueryDegree() != 0 {
		t.Fatal("empty graph max degree should be 0")
	}
}

// TestMaxQueryDegreeCached verifies the cached maximum stays consistent with
// a rescan through every construction path: Build, PruneTrivialQueries, and
// SplitBySide (which relabel and drop hyperedges).
func TestMaxQueryDegreeCached(t *testing.T) {
	rescan := func(g *Bipartite) int {
		maxDeg := 0
		for q := 0; q < g.NumQueries(); q++ {
			if d := g.QueryDegree(int32(q)); d > maxDeg {
				maxDeg = d
			}
		}
		return maxDeg
	}
	r := rng.New(42)
	b := NewBuilder(50, 80)
	for i := 0; i < 400; i++ {
		b.AddEdge(int32(r.Intn(50)), int32(r.Intn(80)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := g.MaxQueryDegree(), rescan(g); got != want {
		t.Fatalf("Build: cached %d, rescan %d", got, want)
	}
	pruned := PruneTrivialQueries(g, 4)
	if got, want := pruned.MaxQueryDegree(), rescan(pruned); got != want {
		t.Fatalf("PruneTrivialQueries: cached %d, rescan %d", got, want)
	}
	side := make([]int8, 80)
	for d := range side {
		side[d] = int8(d % 2)
	}
	for c, sub := range split(t, g, side, [2][]int8{}, [2]bool{true, true}, 2) {
		if got, want := sub.MaxQueryDegree(), rescan(sub); got != want {
			t.Fatalf("SplitBySide child %d: cached %d, rescan %d", c, got, want)
		}
	}
}

func BenchmarkBuild100k(b *testing.B) {
	r := rng.New(1)
	edges := make([]Edge, 100000)
	for i := range edges {
		edges[i] = Edge{Q: int32(r.Intn(10000)), D: int32(r.Intn(20000))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromEdges(10000, 20000, edges); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecursiveSplit times one SplitBySide call — what a recursion node
// pays to hand its two children their subgraphs and first counts — on a
// 100k-incidence graph with the shape a bisection at a middle level leaves:
// small local hyperedges, the cut through the middle, and one vertex in
// sixteen on the far side of it; each child gets random next sides. The
// bisection's side counts, which the split consumes, are copied in per call.
func BenchmarkRecursiveSplit(b *testing.B) {
	const numQ, numD = 16000, 10000
	r := rng.New(1)
	bld := NewBuilder(numQ, numD)
	for q := 0; q < numQ; q++ {
		for i := 2 + r.Intn(10); i > 0; i-- {
			bld.AddEdge(int32(q), int32((q*numD/numQ+r.Intn(400)+numD-200)%numD))
		}
	}
	g, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	side := make([]int8, numD)
	var next [2][]int8
	for d := range side {
		if (d >= numD/2) != (r.Intn(16) == 0) {
			side[d] = 1
		}
		next[side[d]] = append(next[side[d]], int8(r.Intn(2)))
	}
	sideCnt := [2][]int32{make([]int32, numQ), make([]int32, numQ)}
	for q := range int32(numQ) {
		for _, d := range g.QueryNeighbors(q) {
			sideCnt[side[d]][q]++
		}
	}
	cnt := [2][]int32{make([]int32, numQ), make([]int32, numQ)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(cnt[0], sideCnt[0])
		copy(cnt[1], sideCnt[1])
		if out, n := g.SplitBySide(side, cnt, next, [2]bool{true, true}, 2); out[0] == nil || out[1] == nil || n[1][0] == nil {
			b.Fatal("missing child")
		}
	}
	b.ReportMetric(float64(g.NumEdges()), "incidences")
}
