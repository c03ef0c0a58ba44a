package core

import (
	"math"
	"testing"
	"testing/quick"

	"shp/internal/gen"
	"shp/internal/hypergraph"
	"shp/internal/partition"
	"shp/internal/rng"
)

// randomBipartite builds a random test graph.
func randomBipartite(tb testing.TB, seed uint64, numQ, numD, edges int) *hypergraph.Bipartite {
	tb.Helper()
	r := rng.New(seed)
	b := hypergraph.NewBuilder(numQ, numD)
	for i := 0; i < edges; i++ {
		b.AddEdge(int32(r.Intn(numQ)), int32(r.Intn(numD)))
	}
	g, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// figure2 builds the paper's Figure 2 instance (0-indexed): V1 = {0,1,2,3},
// V2 = {4,5,6,7}; q1 = {0,1,4,5}, q2 = {2,3,4,5}, q3 = {2,3,6,7}.
// No single data-vertex move improves fanout, but swapping (3,4) or (2,5)
// improves p-fanout for every 0 < p < 1, and applying both swaps yields the
// optimum (fanout of q1 and q3 drops to 1).
func figure2(tb testing.TB) (*hypergraph.Bipartite, []int8) {
	tb.Helper()
	g, err := hypergraph.FromHyperedges(8, [][]int32{
		{0, 1, 4, 5},
		{2, 3, 4, 5},
		{2, 3, 6, 7},
	})
	if err != nil {
		tb.Fatal(err)
	}
	side := []int8{0, 0, 0, 0, 1, 1, 1, 1}
	return g, side
}

func fanoutOfSides(g *hypergraph.Bipartite, side []int8) float64 {
	a := make(partition.Assignment, len(side))
	for i, s := range side {
		a[i] = int32(s)
	}
	return partition.Fanout(g, a, 2)
}

// newTestBisection builds a bisection with explicit initial sides.
func newTestBisection(g *hypergraph.Bipartite, opts Options, side []int8) *bisection {
	opts = opts.withDefaults()
	b := coldBisection(g, opts, 42, 0, 0, 1, 1, 0.5, opts.Epsilon, 0, nil)
	copy(b.side, side)
	b.recountWeights(weightOf(g))
	b.recountNeighborData()
	return b
}

// coldBisection is newBisection from the start the recursion draws for its
// root: initialSplit, then recountNeighborData. idealPerBucket <= 0 stands
// for g's own.
func coldBisection(g *hypergraph.Bipartite, opts Options, seed uint64, level, task int,
	tLeft, tRight int, propLeft, eps, idealPerBucket float64, home []int8) *bisection {

	total := g.TotalDataWeight()
	if idealPerBucket <= 0 {
		idealPerBucket = float64(total) / float64(tLeft+tRight)
	}
	st := startState{side: make([]int8, g.NumData()), home: home}
	st.initialSplit(newBalance(total, tLeft, tRight, propLeft, eps, idealPerBucket), seed, weightOf(g))
	b, err := newBisection(g, opts, seed, level, task, tLeft, tRight, propLeft, eps, idealPerBucket, st)
	if err != nil {
		panic(err) // every test graph is inside the gain range
	}
	return b
}

// mustDirectState is newDirectState for a graph inside the gain range.
func mustDirectState(tb testing.TB, g *hypergraph.Bipartite, opts Options, seed uint64) *directState {
	tb.Helper()
	st, err := newDirectState(g, opts, seed)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// weightOf is g's data weight in the form initialSplit and recountWeights take.
func weightOf(g *hypergraph.Bipartite) func(int) int64 {
	return func(v int) int64 { return int64(g.DataWeight(int32(v))) }
}

func TestFigure2FanoutIsLocalMinimum(t *testing.T) {
	g, side := figure2(t)
	b := newTestBisection(g, Options{K: 2, Objective: ObjFanout}, side)
	b.computeGains()
	for v := 0; v < 8; v++ {
		if b.gains[v] > 0 {
			t.Fatalf("fanout objective: vertex %d has positive gain %v; Figure 2 should be a local minimum", v, b.gains[v])
		}
	}
}

func TestFigure2PFanoutEscapes(t *testing.T) {
	for _, p := range []float64{0.1, 0.5, 0.9} {
		g, side := figure2(t)
		b := newTestBisection(g, Options{K: 2, P: p}, side)
		b.computeGains()
		positive := 0
		for v := 0; v < 8; v++ {
			if b.gains[v] > 0 {
				positive++
			}
		}
		if positive == 0 {
			t.Fatalf("p=%v: no positive p-fanout gains; smoothing failed to open the local minimum", p)
		}
	}
}

func TestFigure2RefinementReachesOptimum(t *testing.T) {
	// From the stuck state, p = 0.5 refinement should reach total fanout 4
	// (average 4/3); direct fanout optimization stays at 6 (average 2).
	g, side := figure2(t)
	b := newTestBisection(g, Options{K: 2, P: 0.5, MaxIters: 20}, side)
	b.run()
	if f := fanoutOfSides(g, b.side); math.Abs(f-4.0/3.0) > 1e-9 {
		t.Fatalf("p=0.5 fanout = %v, want 4/3", f)
	}
	g, side = figure2(t)
	b = newTestBisection(g, Options{K: 2, Objective: ObjFanout, MaxIters: 20}, side)
	b.run()
	if f := fanoutOfSides(g, b.side); math.Abs(f-2.0) > 1e-9 {
		t.Fatalf("direct fanout optimization escaped the local minimum: fanout = %v, want 2", f)
	}
}

// TestGainMatchesObjectiveDelta is the central correctness property: the
// Equation 1 gain of a vertex must equal the exact objective change from
// applying the move, for every objective and lookahead setting.
func TestGainMatchesObjectiveDelta(t *testing.T) {
	type config struct {
		opts   Options
		tL, tR int
	}
	configs := []config{
		{Options{K: 2, P: 0.5}, 1, 1},
		{Options{K: 2, P: 0.9}, 1, 1},
		{Options{K: 2, Objective: ObjFanout}, 1, 1},
		{Options{K: 2, Objective: ObjCliqueNet}, 1, 1},
		{Options{K: 8, P: 0.5}, 4, 4},
		{Options{K: 12, P: 0.3}, 7, 5},
	}
	for ci, cfg := range configs {
		cfg.opts = cfg.opts.withDefaults()
		err := quick.Check(func(seed uint64, vRaw uint16) bool {
			g := randomBipartite(t, seed, 12, 16, 70)
			b := coldBisection(g, cfg.opts, seed, 0, 0, cfg.tL, cfg.tR, 0.5, 0.05, 0, nil)
			v := int32(vRaw) % 16
			b.computeGains()
			gain := b.gains[v]
			before := b.objective()
			// Apply the move.
			cur := b.side[v]
			oth := 1 - cur
			b.side[v] = oth
			for _, q := range g.DataNeighbors(v) {
				b.n[cur][q]--
				b.n[oth][q]++
			}
			after := b.objective()
			// Gain tables are quantized to the dyadic gain grid (see
			// gainGridBits), which perturbs the gain/objective-delta
			// identity by up to ~2^-32 per incident query; 1e-6 leaves
			// room for weighted high-degree test vertices.
			return math.Abs((before-after)-b.tables[0].Unit()*float64(gain)) < 1e-6
		}, &quick.Config{MaxCount: 40})
		if err != nil {
			t.Fatalf("config %d (%+v): %v", ci, cfg.opts.Objective, err)
		}
	}
}

// TestDirectGainMatchesObjectiveDelta checks the same property for the
// sparse k-way gain computation.
func TestDirectGainMatchesObjectiveDelta(t *testing.T) {
	err := quick.Check(func(seed uint64, vRaw uint16) bool {
		g := randomBipartite(t, seed, 12, 16, 70)
		opts := Options{K: 5, P: 0.5, Epsilon: 10}.withDefaults() // huge eps: no full buckets
		st := mustDirectState(t, g, opts, seed)
		st.buildNeighborData()
		st.computeProposals()
		v := int32(vRaw) % 16
		tgt := st.target[v]
		if tgt < 0 {
			return true
		}
		before := st.objectiveFromND()
		st.bucket[v] = tgt
		st.buildNeighborData()
		after := st.objectiveFromND()
		delta := st.tables.objective(float64(before - after))
		return math.Abs(delta-st.tables.Unit()*float64(st.gains[v])) < 1e-9
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDirectTargetIsArgmax verifies the chosen target maximizes the gain
// among all non-full buckets.
func TestDirectTargetIsArgmax(t *testing.T) {
	g := randomBipartite(t, 7, 15, 20, 90)
	opts := Options{K: 4, P: 0.5, Epsilon: 10}.withDefaults()
	st := mustDirectState(t, g, opts, 3)
	st.buildNeighborData()
	st.computeProposals()
	for v := int32(0); v < 20; v++ {
		tgt := st.target[v]
		if tgt < 0 {
			continue
		}
		before := st.objectiveFromND()
		cur := st.bucket[v]
		bestDelta := math.Inf(-1)
		for c := int32(0); c < 4; c++ {
			if c == cur {
				continue
			}
			st.bucket[v] = c
			st.buildNeighborData()
			delta := st.tables.objective(float64(before - st.objectiveFromND()))
			if delta > bestDelta+1e-12 {
				bestDelta = delta
			}
			st.bucket[v] = cur
		}
		st.buildNeighborData()
		if math.Abs(bestDelta-st.tables.Unit()*float64(st.gains[v])) > 1e-9 {
			t.Fatalf("vertex %d: argmax delta %v but proposal gain %v", v, bestDelta, st.gains[v])
		}
	}
}

func TestPartitionRecursiveValidBalanced(t *testing.T) {
	for _, k := range []int{2, 3, 4, 5, 8, 16} {
		g := randomBipartite(t, uint64(k), 300, 500, 3000)
		res, err := Partition(g, Options{K: k, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Assignment.Validate(k); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if imb := partition.Imbalance(res.Assignment, k); imb > 0.05+0.03 {
			t.Fatalf("k=%d: imbalance %v exceeds ε=0.05 (+stochastic tolerance)", k, imb)
		}
	}
}

func TestPartitionImprovesOverRandom(t *testing.T) {
	// A planted 4-community hypergraph: queries live inside communities,
	// so SHP should get close to fanout 1, far below random's ~3.
	r := rng.New(99)
	const perCommunity, communities = 100, 4
	nd := perCommunity * communities
	b := hypergraph.NewBuilder(400, nd)
	for q := 0; q < 400; q++ {
		c := q % communities
		for e := 0; e < 6; e++ {
			b.AddEdge(int32(q), int32(c*perCommunity+r.Intn(perCommunity)))
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	randomF := partition.Fanout(g, partition.Random(nd, communities, 5), communities)
	res, err := Partition(g, Options{K: communities, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	shpF := partition.Fanout(g, res.Assignment, communities)
	if shpF > randomF*0.55 {
		t.Fatalf("SHP fanout %v not far below random %v on planted communities", shpF, randomF)
	}
}

func TestPartitionDeterministic(t *testing.T) {
	g := randomBipartite(t, 5, 200, 300, 2000)
	a, err := Partition(g, Options{K: 8, Seed: 7, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Partition(g, Options{K: 8, Seed: 7, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assignment {
		if a.Assignment[i] != b.Assignment[i] {
			t.Fatalf("parallelism changed the result at vertex %d", i)
		}
	}
	c, err := Partition(g, Options{K: 8, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range a.Assignment {
		if a.Assignment[i] != c.Assignment[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical partitions")
	}
}

func TestPartitionDirectValidBalanced(t *testing.T) {
	for _, k := range []int{2, 8, 32} {
		g := randomBipartite(t, uint64(k)+100, 300, 500, 3000)
		res, err := Partition(g, Options{K: k, Direct: true, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Assignment.Validate(k); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if imb := partition.Imbalance(res.Assignment, k); imb > 0.05+0.05 {
			t.Fatalf("k=%d: direct imbalance %v", k, imb)
		}
	}
}

func TestObjectiveDecreasesOverIterations(t *testing.T) {
	g := randomBipartite(t, 31, 400, 600, 5000)
	res, err := Partition(g, Options{K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) < 2 {
		t.Skip("converged immediately")
	}
	first := res.History[0].Objective
	last := res.History[len(res.History)-1].Objective
	if last > first {
		t.Fatalf("objective rose over refinement: %v -> %v", first, last)
	}
}

func TestPartitionReducesFanout(t *testing.T) {
	g := randomBipartite(t, 77, 500, 800, 6000)
	base := partition.Fanout(g, partition.Random(800, 8, 1), 8)
	res, err := Partition(g, Options{K: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if f := partition.Fanout(g, res.Assignment, 8); f >= base {
		t.Fatalf("fanout %v did not improve over random %v", f, base)
	}
}

func TestCliqueNetObjectiveReducesCut(t *testing.T) {
	g := randomBipartite(t, 13, 300, 400, 2500)
	randomCut := partition.CliqueNetCut(g, partition.Random(400, 4, 9))
	res, err := Partition(g, Options{K: 4, Objective: ObjCliqueNet, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cut := partition.CliqueNetCut(g, res.Assignment)
	if cut >= randomCut {
		t.Fatalf("clique-net cut %v did not improve over random %v", cut, randomCut)
	}
}

func TestWarmStartWithPenaltyLimitsChurn(t *testing.T) {
	g := randomBipartite(t, 17, 400, 600, 4000)
	first, err := Partition(g, Options{K: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Re-partition warm-started with a prohibitive move penalty, hundreds of
	// times any Equation 1 gain here: almost nothing should move.
	again, err := Partition(g, Options{K: 4, Seed: 60, Initial: first.Assignment, MoveCostPenalty: 1e3})
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := range first.Assignment {
		if first.Assignment[i] != again.Assignment[i] {
			moved++
		}
	}
	if frac := float64(moved) / float64(len(first.Assignment)); frac > 0.02 {
		t.Fatalf("%.1f%% vertices moved despite prohibitive penalty", frac*100)
	}
	// Without the penalty the warm start is free to move more.
	free, err := Partition(g, Options{K: 4, Seed: 60, Initial: first.Assignment})
	if err != nil {
		t.Fatal(err)
	}
	if err := free.Assignment.Validate(4); err != nil {
		t.Fatal(err)
	}
}

func TestWarmStartDirectMode(t *testing.T) {
	g := randomBipartite(t, 19, 300, 500, 3000)
	first, err := Partition(g, Options{K: 8, Direct: true, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	again, err := Partition(g, Options{K: 8, Direct: true, Seed: 12, Initial: first.Assignment})
	if err != nil {
		t.Fatal(err)
	}
	f1 := partition.Fanout(g, first.Assignment, 8)
	f2 := partition.Fanout(g, again.Assignment, 8)
	if f2 > f1*1.05 {
		t.Fatalf("warm-started run regressed fanout: %v -> %v", f1, f2)
	}
}

// TestTrackFanoutHistory pins that direct mode fills IterStats.Fanout every
// iteration with the true query-weighted average fanout: the last entry must
// equal partition.Fanout on the final assignment exactly, on a unit-weight
// and on a query-weighted graph (where entries/|Q| would be a different
// number).
func TestTrackFanoutHistory(t *testing.T) {
	for name, g := range map[string]*hypergraph.Bipartite{
		"unit":     randomBipartite(t, 23, 300, 500, 3000),
		"weighted": weightedBipartite(t, 23, 300, 500, 3000),
	} {
		res, err := Partition(g, Options{K: 8, Direct: true, Seed: 13, MaxIters: 10})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.History) == 0 {
			t.Fatalf("%s: no history recorded", name)
		}
		for i, h := range res.History {
			if h.Fanout <= 0 {
				t.Fatalf("%s: history[%d].Fanout = %v, want > 0", name, i, h.Fanout)
			}
		}
		want := partition.Fanout(g, res.Assignment, 8)
		if got := res.History[len(res.History)-1].Fanout; got != want {
			t.Fatalf("%s: tracked fanout %v != measured %v", name, got, want)
		}
	}
}

func TestK1Trivial(t *testing.T) {
	g := randomBipartite(t, 3, 20, 30, 100)
	res, err := Partition(g, Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range res.Assignment {
		if b != 0 {
			t.Fatal("k=1 must assign everything to bucket 0")
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	g := randomBipartite(t, 3, 10, 10, 30)
	cases := []Options{
		{K: 0},
		{K: 2, Epsilon: -1},
		{K: 2, P: 2},
		{K: 2, Initial: partition.Assignment{0}},
		{K: 2, Initial: partition.Assignment{0, 5, 0, 0, 0, 0, 0, 0, 0, 0}},
		{K: 2, MoveCostPenalty: -1},
	}
	for i, o := range cases {
		if _, err := Partition(g, o); err == nil {
			t.Errorf("case %d (%+v): expected error", i, o)
		}
	}
}

func TestWeightedBalance(t *testing.T) {
	r := rng.New(3)
	b := hypergraph.NewBuilder(200, 300)
	for i := 0; i < 1500; i++ {
		b.AddEdge(int32(r.Intn(200)), int32(r.Intn(300)))
	}
	weights := make([]int32, 300)
	for i := range weights {
		weights[i] = int32(1 + r.Intn(5))
	}
	g, err := b.SetDataWeights(weights).Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Partition(g, Options{K: 4, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	if imb := partition.WeightedImbalance(g, res.Assignment, 4); imb > 0.05+0.07 {
		t.Fatalf("weighted imbalance %v", imb)
	}
}

func TestLevelsFor(t *testing.T) {
	cases := []struct{ k, want int }{
		{2, 1}, {4, 2}, {5, 3}, {8, 3}, {512, 9}, {1, 0},
	}
	for _, c := range cases {
		if got := levelsFor(c.k); got != c.want {
			t.Fatalf("levelsFor(%d) = %d, want %d", c.k, got, c.want)
		}
	}
}

func TestHistoryOrdering(t *testing.T) {
	g := randomBipartite(t, 67, 300, 400, 2500)
	res, err := Partition(g, Options{K: 8, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.History); i++ {
		a, b := res.History[i-1], res.History[i]
		if b.Level < a.Level {
			t.Fatal("history not ordered by level")
		}
		if b.Level == a.Level && b.Task == a.Task && b.Iter != a.Iter+1 {
			t.Fatal("iterations within a task are not consecutive")
		}
	}
	if res.Iterations != len(res.History) {
		t.Fatalf("Iterations = %d but %d history entries", res.Iterations, len(res.History))
	}
}

// TestRecursiveRespectsEpsilon checks the property Section 3.4's per-level ε
// schedule buys: SHP-2 ends with every bucket within (1+ε)·n/k. Granting the
// whole ε at every level (the schedule's removed off-switch) let the
// per-level overshoots compound past the cap on six of eight bench cells. The
// graphs are the four shpbench shapes at a tenth of the size, two seeds each,
// and one random data-weighted graph checked by weight.
func TestRecursiveRespectsEpsilon(t *testing.T) {
	shapes := []struct {
		name string
		k    int
		gen  func(seed uint64) (*hypergraph.Bipartite, error)
	}{
		{"bisect-social", 128, func(s uint64) (*hypergraph.Bipartite, error) { return gen.SocialEgoNets(16000, 20, 100, 0.85, s) }},
		{"kway-powerlaw", 32, func(s uint64) (*hypergraph.Bipartite, error) {
			return gen.HubPowerLawBipartite(2400, 4000, 32000, 3.0, 0.0002, 16, s)
		}},
		{"churn-hub", 16, func(s uint64) (*hypergraph.Bipartite, error) {
			return gen.HubPowerLawBipartite(2000, 3250, 25000, 3.0, 0.0002, 13, s)
		}},
		{"dist-social", 8, func(s uint64) (*hypergraph.Bipartite, error) { return gen.SocialEgoNets(1200, 14, 100, 0.85, s) }},
	}
	const eps = 0.05
	for _, sh := range shapes {
		for _, seed := range []uint64{11, 1011} {
			g, err := sh.gen(seed)
			if err != nil {
				t.Fatal(err)
			}
			g = hypergraph.PruneTrivialQueries(g, 2)
			res, err := Partition(g, Options{K: sh.k, Epsilon: eps, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			limit := (1 + eps) * float64(g.NumData()) / float64(sh.k)
			for b, size := range partition.BucketSizes(res.Assignment, sh.k) {
				if float64(size) > limit {
					t.Errorf("%s seed %d: bucket %d holds %d of %d vertices, over (1+ε)·n/k = %.2f", sh.name, seed, b, size, g.NumData(), limit)
				}
			}
		}
	}

	// Data weights 1–8: undoing a heavy arrival can push its origin over its
	// cap, so the move batch's trim must repeat until both sides fit. One
	// trim pass per side left a bucket of this graph at 169 > 168.9.
	r := rng.New(7)
	nd, nq := 200+r.Intn(400), 100+r.Intn(300)
	b := hypergraph.NewBuilder(nq, nd)
	for range 5 * nd {
		b.AddEdge(int32(r.Intn(nq)), int32(r.Intn(nd)))
	}
	weights := make([]int32, nd)
	for i := range weights {
		weights[i] = int32(1 + r.Intn(8))
	}
	g, err := b.SetDataWeights(weights).Build()
	if err != nil {
		t.Fatal(err)
	}
	const k = 8
	res, err := Partition(g, Options{K: k, Epsilon: eps, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	limit := (1 + eps) * float64(g.TotalDataWeight()) / k
	for c, w := range partition.BucketWeights(g, res.Assignment, k) {
		if float64(w) > limit {
			t.Errorf("weighted: bucket %d weighs %d of %d, over (1+ε)·W/k = %.2f", c, w, g.TotalDataWeight(), limit)
		}
	}
}
