package core

import (
	"math"
	"slices"
	"testing"

	"shp/internal/rng"
)

// mapFold is the straightforward form of the pair-histogram fold, kept as
// the reference: a map from direction to DirHist, filled in ascending v, and
// the directions in the order it first met them.
func mapFold(bucket, target []int32, gains []float64) (map[dirKey]*DirHist, []dirKey) {
	hists := map[dirKey]*DirHist{}
	var order []dirKey
	for v := range bucket {
		if target[v] < 0 {
			continue
		}
		d := dirKey{bucket[v], target[v]}
		if hists[d] == nil {
			hists[d] = &DirHist{}
			order = append(order, d)
		}
		hists[d].Add(gains[v])
	}
	return hists, order
}

// hist returns direction (from, to)'s merged histogram of the last fold, or
// nil if nothing proposed it.
func (f *pairFold) hist(from, to int32) *DirHist {
	if s := f.idx.get(dirKey{from, to}); s != 0 {
		return &f.hists[s-1]
	}
	return nil
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

// randomProposals draws nd proposals over k buckets: most vertices sit in
// (and most target) a few hot buckets so directions repeat within and across
// the fold, a tenth propose nothing, and gains span both signs, zero,
// and forty binary orders of magnitude.
func randomProposals(seed uint64, nd, k int) (bucket, target []int32, gains []float64) {
	r := rng.New(seed)
	pick := func() int32 {
		if r.Intn(4) != 0 {
			return int32(r.Intn(min(k, 4)))
		}
		return int32(r.Intn(k))
	}
	bucket, target, gains = make([]int32, nd), make([]int32, nd), make([]float64, nd)
	for v := range bucket {
		bucket[v] = pick()
		target[v] = pick()
		for target[v] == bucket[v] {
			target[v] = int32(r.Intn(k))
		}
		switch r.Intn(10) {
		case 0:
			target[v] = -1
		case 1:
			gains[v] = 0
		default:
			gains[v] = math.Ldexp(r.Float64()-0.4, r.Intn(40)-30)
		}
	}
	return bucket, target, gains
}

// TestSparseFoldMatchesDenseFold pins the fold to the map reference bit for
// bit — histograms, first-encounter order, and the probability tables
// matched from them — on both sides of densePairK, with non-grid gains, and
// across reuse of one pairFold (stale histograms or index entries would show
// on the later inputs).
func TestSparseFoldMatchesDenseFold(t *testing.T) {
	ks := []int{2, 32, densePairK, densePairK + 1, 300}
	if testing.Short() { // the race job: one k per index container
		ks = []int{32, densePairK + 1}
	}
	for _, k := range ks {
		f := newPairFold(k)
		for i, nd := range []int{6144, 9000, 1500} {
			bucket, target, gains := randomProposals(uint64(1000*k+i), nd, k)
			want, order := mapFold(bucket, target, gains)
			var empty DirHist
			f.fold(bucket, target, gains)
			f.match()
			if !slices.Equal(f.keys, order) {
				t.Fatalf("k=%d nd=%d: directions %d in another order than first met, want %d", k, nd, len(f.keys), len(order))
			}
			for d, h := range want {
				if got := f.hist(d.from, d.to); got == nil || !sameHist(got, h) {
					t.Fatalf("k=%d nd=%d: histogram of %v differs from the map fold", k, nd, d)
				}
				rh := want[dirKey{d.to, d.from}]
				if rh == nil {
					rh = &empty
				}
				// The matcher is symmetric in its two sides, so which direction
				// the fold met first does not show here.
				pa, _ := MatchHistograms(h, rh, 0, 0)
				if p := f.prob(d.from, d.to); p == nil || !sameProbs(p, &pa) {
					t.Fatalf("k=%d nd=%d: probabilities of %v differ", k, nd, d)
				}
			}
			if f.hist(0, 0) != nil || f.prob(0, 0) != nil {
				t.Fatalf("k=%d: direction (0,0) was never proposed", k)
			}
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

// TestDirHistDirectWritersSurviveMerge guards the writers that fill DirHist
// fields without going through Add — DecodeDirHist and gainBins.hist: merged
// into an empty histogram, their output must equal itself bit for bit. (An
// occupancy mask on DirHist that Merge consulted would silently drop their
// bins.)
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

	gb := newGainBins(5000)
	for v := range gb.slot {
		gb.update(int32(v), int8(r.Intn(2)), math.Ldexp(r.Float64()-0.5, r.Intn(50)-35))
	}
	for side := 0; side < 2; side++ {
		built := gb.hist(side)
		if built.Total() == 0 {
			t.Fatal("gainBins histogram is empty")
		}
		var into DirHist
		into.Merge(&built)
		if !sameHist(&into, &built) {
			t.Fatalf("side %d: a gainBins-built histogram merged into an empty one is not itself", side)
		}
	}
}
