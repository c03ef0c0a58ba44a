package core

import (
	"math"
	"testing"

	"shp/internal/rng"
)

// mapFold is the straightforward form of the pair-histogram fold, kept as
// the reference: a map from direction to DirHist, filled in ascending v.
func mapFold(bucket, target []int32, gains []float64) map[dirKey]*DirHist {
	hists := map[dirKey]*DirHist{}
	for v := range bucket {
		if target[v] < 0 {
			continue
		}
		d := dirKey{bucket[v], target[v]}
		if hists[d] == nil {
			hists[d] = &DirHist{}
		}
		hists[d].Add(gains[v])
	}
	return hists
}

// sameHist and sameProbs compare bit patterns, not float values: -0 vs +0 or
// differing NaNs must not pass as equal.
func sameHist(a, b *DirHist) bool {
	for i := 0; i < histBins; i++ {
		if a.posCount[i] != b.posCount[i] || a.negCount[i] != b.negCount[i] ||
			math.Float64bits(a.posSum[i]) != math.Float64bits(b.posSum[i]) ||
			math.Float64bits(a.negSum[i]) != math.Float64bits(b.negSum[i]) {
			return false
		}
	}
	return true
}

func sameProbs(a, b *ProbTable) bool {
	for i := 0; i < histBins; i++ {
		if math.Float64bits(a.pos[i]) != math.Float64bits(b.pos[i]) ||
			math.Float64bits(a.neg[i]) != math.Float64bits(b.neg[i]) {
			return false
		}
	}
	return true
}

// proposalGen draws proposals over k buckets: most vertices sit in (and most
// target) a few hot buckets so directions repeat, a tenth propose nothing,
// and gains span both signs and zero. Grid gains are 0.5 × integer multiples
// of 2^-32 below 2^8, so nd ≤ 8000 of them stay inside the exact range;
// off-grid ones span forty binary orders of magnitude.
type proposalGen struct {
	r    *rng.RNG
	k    int
	grid bool
}

func (pg proposalGen) bucket() int32 {
	if pg.r.Intn(4) != 0 {
		return int32(pg.r.Intn(min(pg.k, 4)))
	}
	return int32(pg.r.Intn(pg.k))
}

// draw gives vertex v a new proposal.
func (pg proposalGen) draw(v int, bucket, target []int32, gains []float64) {
	bucket[v] = pg.bucket()
	target[v] = pg.bucket()
	for target[v] == bucket[v] {
		target[v] = int32(pg.r.Intn(pg.k))
	}
	pg.redraw(v, target, gains)
}

// redraw keeps v's bucket: a new target, a withdrawn proposal, or a new gain.
func (pg proposalGen) redraw(v int, target []int32, gains []float64) {
	switch pg.r.Intn(10) {
	case 0:
		target[v] = -1
	case 1:
		gains[v] = 0
	default:
		if pg.grid {
			gains[v] = 0.5 * math.Ldexp(float64(pg.r.Intn(511)-255), -pg.r.Intn(33))
		} else {
			gains[v] = math.Ldexp(pg.r.Float64()-0.4, pg.r.Intn(40)-30)
		}
	}
}

// randomProposals draws nd proposals over k buckets.
func randomProposals(seed uint64, nd, k int, grid bool) (bucket, target []int32, gains []float64) {
	pg := proposalGen{rng.New(seed), k, grid}
	bucket, target, gains = make([]int32, nd), make([]int32, nd), make([]float64, nd)
	for v := range bucket {
		pg.draw(v, bucket, target, gains)
	}
	return bucket, target, gains
}

// planeProbs collects the probability tables of the plane's last match from
// its granted cells.
func planeProbs(gb *gainBins) map[dirKey]*ProbTable {
	out := map[dirKey]*ProbTable{}
	for _, g := range gb.granted {
		d := gb.dirs[g.cell/binCodes].key
		if out[d] == nil {
			out[d] = &ProbTable{}
		}
		if code := g.cell % binCodes; code < histBins {
			out[d].pos[code] = g.p
		} else {
			out[d].neg[code-histBins] = g.p
		}
	}
	return out
}

// checkPlane compares the plane with the map fold of the same proposals:
// every proposed direction's histogram bit for bit, no other direction with
// members, and the probability tables of a match at zero extras. A direction
// that emptied may keep a slot; its +0 sums are checked through its
// probabilities, which must be none.
func checkPlane(t *testing.T, gb *gainBins, bucket, target []int32, gains []float64) {
	t.Helper()
	want := mapFold(bucket, target, gains)
	for d, h := range want {
		s := gb.idx.get(d)
		if s == 0 || !sameHist(&gb.dirs[s-1].hist, h) {
			t.Fatalf("histogram of %v differs from the map fold", d)
		}
	}
	for s, pd := range gb.dirs {
		if pd.members > 0 && gb.idx.get(pd.key) == int32(s+1) && want[pd.key] == nil {
			t.Fatalf("direction %v has %d members but no proposal", pd.key, pd.members)
		}
	}
	gb.match(nil)
	got := planeProbs(gb)
	var empty DirHist
	for d, h := range want {
		rh := want[dirKey{d.to, d.from}]
		if rh == nil {
			rh = &empty
		}
		pa, _ := MatchHistograms(h, rh, 0, 0)
		gp := got[d]
		if gp == nil {
			gp = &ProbTable{}
		}
		if !sameProbs(gp, &pa) {
			t.Fatalf("probabilities of %v differ", d)
		}
	}
	for d := range got {
		if want[d] == nil {
			t.Fatalf("direction %v was granted moves but proposes nothing", d)
		}
	}
}

// TestSparseFoldMatchesDenseFold pins the maintained plane to the map fold
// bit for bit, on both sides of densePairK. Grid gains go through rounds of
// retracts and asserts in ascending v — target changes, moves, gains that
// cross bins and signs, withdrawn proposals — and must land on the fold's
// bits; off-grid gains go through the refill, as SHP-k does outside the
// exact range.
func TestSparseFoldMatchesDenseFold(t *testing.T) {
	ks := []int{2, 32, densePairK, densePairK + 1, 300}
	if testing.Short() { // the race job: one k per index container
		ks = []int{32, densePairK + 1}
	}
	const nd = 6000
	for _, k := range ks {
		for _, grid := range []bool{true, false} {
			bucket, target, gains := randomProposals(uint64(1000*k), nd, k, grid)
			gb := newGainBins(k, nd)
			gb.refill(bucket, target, gains)
			checkPlane(t, gb, bucket, target, gains)
			pg := proposalGen{rng.New(uint64(k) + 7), k, grid}
			for round := 0; round < 6; round++ {
				// A round changes a share of the proposals that shrinks to a few
				// hundred, so directions empty and come back.
				share := []int{2, 4, 10, 30, 60, 100}[round]
				for v := range bucket {
					if pg.r.Intn(share) != 0 {
						continue
					}
					if pg.r.Intn(3) == 0 {
						pg.draw(v, bucket, target, gains) // a move
					} else {
						pg.redraw(v, target, gains)
					}
				}
				if grid {
					for v := range bucket {
						gb.update(int32(v), bucket[v], target[v], gains[v])
					}
				} else {
					gb.refill(bucket, target, gains)
				}
				checkPlane(t, gb, bucket, target, gains)
			}
			if live := len(gb.dirs) - len(gb.free); live > len(mapFold(bucket, target, gains)) && grid {
				t.Fatalf("k=%d: %d live direction slots for fewer proposed directions; emptied ones were not released", k, live)
			}
		}
	}
}

// TestPlaneMatchesFoldEveryPass: after every SHP-k proposal pass the plane
// is the fold of the cached proposals bit for bit — maintained on the grid,
// refilled off it (P = 0.3, a MoveCostPenalty) — over cold runs and churned
// sessions, whose graph edits grow the gain tables and add vertices.
func TestPlaneMatchesFoldEveryPass(t *testing.T) {
	for name, g := range oracleGraphs(t) {
		for _, opts := range []Options{
			{K: 8, Direct: true, Seed: 5, Epsilon: 0.02, MaxIters: 12},
			{K: 8, Direct: true, Seed: 5, Epsilon: 0.02, MaxIters: 12, P: 0.3},
			{K: 8, Direct: true, Seed: 5, Epsilon: 0.02, MaxIters: 12, MoveCostPenalty: 0.05},
		} {
			s, err := NewSession(g.Clone(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Repartition(); err != nil { // builds the warm engine
				t.Fatal(err)
			}
			st, passes, maintained := s.st, 0, 0
			st.afterProposals = func() {
				checkPlane(t, st.plane, st.bucket, st.target, st.gains)
				if st.gainsExact && !st.candsStale {
					maintained++
				}
				passes++
			}
			r := rng.New(23)
			for epoch := 0; epoch < 8; epoch++ {
				if err := s.Apply(oracleChurn(s, epoch, r)); err != nil {
					t.Fatal(err)
				}
				if _, err := s.Repartition(); err != nil {
					t.Fatal(err)
				}
			}
			if exact := opts.P == 0 && opts.MoveCostPenalty == 0; exact != (maintained > 0) || passes < 16 {
				t.Fatalf("%s %+v: %d passes, %d on a maintained plane", name, opts, passes, maintained)
			}
		}
	}
}

// TestMatchHistogramsSymmetric: at zero extras, swapping the matcher's two
// sides swaps its two tables bit for bit — which is why the plane may match
// a pair from either direction.
func TestMatchHistogramsSymmetric(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 200; trial++ {
		var a, b DirHist
		for i := r.Intn(300); i > 0; i-- {
			a.Add(math.Ldexp(r.Float64()-0.5, r.Intn(30)-20))
		}
		for i := r.Intn(300); i > 0; i-- {
			b.Add(math.Ldexp(r.Float64()-0.5, r.Intn(30)-20))
		}
		pa, pb := MatchHistograms(&a, &b, 0, 0)
		qb, qa := MatchHistograms(&b, &a, 0, 0)
		if !sameProbs(&pa, &qa) || !sameProbs(&pb, &qb) {
			t.Fatalf("trial %d: swapping the sides changed the tables", trial)
		}
	}
}

// TestWarmIterationAllocations: once the engine is warm, a k=32 refinement
// iteration allocates only where a patch grows a candidate list past its
// capacity — 2 per iteration on this seeded run, measured — and nothing per
// vertex, per bucket pair, or for fan-out bookkeeping (24 when the kernels
// still had it). The graph is sized so a per-vertex or per-pair allocation
// would be thousands.
func TestWarmIterationAllocations(t *testing.T) {
	g := randomBipartite(t, 5, 3000, 6000, 30000)
	opts := Options{K: 32, Direct: true, Seed: 3, MinMoveFraction: 1e-12}.withDefaults()
	st := newDirectState(g, opts, 3)
	st.buildNeighborData()
	st.maxIters = 12
	st.refine() // warm: every scratch has seen sweep- and patch-regime batches
	if len(st.history) < 12 {
		t.Fatalf("converged after %d iterations; the warm-up needs 12", len(st.history))
	}
	if st.candsStale {
		// A sweep-regime iteration would materialise the candidate lists
		// inside the measured runs: thousands of one-off allocations.
		t.Fatal("the warm-up never reached a patched batch; the candidate lists do not exist yet")
	}
	iter := len(st.history)
	objective := 0.0
	avg := testing.AllocsPerRun(20, func() { // the body of refine's loop
		st.computeProposals()
		accepted := st.applyMoves(iter)
		st.applyNDDeltas(accepted)
		objective = st.objectiveFromND()
		iter++
	})
	if objective == 0 {
		t.Fatal("no objective")
	}
	t.Logf("%.1f allocations per warm iteration", avg)
	if avg > 2 {
		t.Fatalf("warm iteration allocates %.1f objects; want at most 2", avg)
	}
}

// TestDirHistDirectWritersSurviveMerge guards the writer that fills DirHist
// fields without going through Add — DecodeDirHist: merged into an empty
// histogram, its output must equal itself bit for bit. (An occupancy mask on
// DirHist that Merge consulted would silently drop its bins.)
func TestDirHistDirectWritersSurviveMerge(t *testing.T) {
	r := rng.New(99)
	var src DirHist
	for i := 0; i < 500; i++ {
		src.Add(math.Ldexp(r.Float64()-0.5, r.Intn(50)-35))
	}
	decoded, _, err := DecodeDirHist(src.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !sameHist(&decoded, &src) {
		t.Fatal("decoded histogram differs from its source")
	}
	var into DirHist
	into.Merge(&decoded)
	if !sameHist(&into, &decoded) {
		t.Fatal("a decoded histogram merged into an empty one is not itself")
	}
}
