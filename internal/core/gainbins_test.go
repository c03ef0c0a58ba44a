package core

import (
	"math"
	"testing"

	"shp/internal/rng"
)

// Gain units of P = 0.5 (a power of two, so the units' floats are exact)
// and of P = 0.3 (not one).
var (
	unitHalf  = math.Ldexp(0.5, -gainGridBits)
	unitThird = math.Ldexp(0.3, -gainGridBits)
)

// randomGain draws gain units of either sign spanning thirty binary orders
// of magnitude, about 2^-20 to 2^10 in objective units at unitHalf.
func randomGain(r *rng.RNG) int64 {
	return int64(math.Ldexp(r.Float64()-0.5, r.Intn(30)+13))
}

// mapFold is the straightforward form of the pair-histogram fold, kept as
// the reference: a map from direction to DirHist, filled in ascending v.
func mapFold(bucket, target []int32, gains []int64, unit float64) map[dirKey]*DirHist {
	hists := map[dirKey]*DirHist{}
	for v := range bucket {
		if target[v] < 0 {
			continue
		}
		d := dirKey{bucket[v], target[v]}
		if hists[d] == nil {
			hists[d] = &DirHist{}
		}
		hists[d].Add(gains[v], unit)
	}
	return hists
}

// sameProbs compares bit patterns, not float values: -0 vs +0 or differing
// NaNs must not pass as equal.
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
// and gains span both signs and zero (randomGain).
type proposalGen struct {
	r *rng.RNG
	k int
}

func (pg proposalGen) bucket() int32 {
	if pg.r.Intn(4) != 0 {
		return int32(pg.r.Intn(min(pg.k, 4)))
	}
	return int32(pg.r.Intn(pg.k))
}

// draw gives vertex v a new proposal.
func (pg proposalGen) draw(v int, bucket, target []int32, gains []int64) {
	bucket[v] = pg.bucket()
	target[v] = pg.bucket()
	for target[v] == bucket[v] {
		target[v] = int32(pg.r.Intn(pg.k))
	}
	pg.redraw(v, target, gains)
}

// redraw keeps v's bucket: a new target, a withdrawn proposal, or a new gain.
func (pg proposalGen) redraw(v int, target []int32, gains []int64) {
	switch pg.r.Intn(10) {
	case 0:
		target[v] = -1
	case 1:
		gains[v] = 0
	default:
		gains[v] = randomGain(pg.r)
	}
}

// randomProposals draws nd proposals over k buckets.
func randomProposals(seed uint64, nd, k int) (bucket, target []int32, gains []int64) {
	pg := proposalGen{rng.New(seed), k}
	bucket, target, gains = make([]int32, nd), make([]int32, nd), make([]int64, nd)
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
// every proposed direction's histogram, no other direction with members, and
// the probability tables of a match at zero extras.
func checkPlane(t *testing.T, gb *gainBins, bucket, target []int32, gains []int64) {
	t.Helper()
	want := mapFold(bucket, target, gains, gb.unit)
	for d, h := range want {
		s := gb.idx.get(d)
		if s == 0 || gb.dirs[s-1].hist != *h {
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

// TestSparseFoldMatchesDenseFold pins the maintained plane to the map fold,
// on both sides of densePairK and at both units. Gains go through rounds of
// retracts and asserts in descending v — target changes, moves, gains that
// cross bins and signs, withdrawn proposals — and must land on the fold
// in ascending v, as must a refill.
func TestSparseFoldMatchesDenseFold(t *testing.T) {
	ks := []int{2, 32, densePairK, densePairK + 1, 300}
	if testing.Short() { // the race job: one k per index container
		ks = []int{32, densePairK + 1}
	}
	const nd = 6000
	for _, k := range ks {
		for _, unit := range []float64{unitHalf, unitThird} {
			bucket, target, gains := randomProposals(uint64(1000*k), nd, k)
			gb := newGainBins(k, nd, unit)
			gb.refill(bucket, target, gains)
			checkPlane(t, gb, bucket, target, gains)
			pg := proposalGen{rng.New(uint64(k) + 7), k}
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
				if round == 3 {
					gb.refill(bucket, target, gains)
				} else {
					for v := len(bucket) - 1; v >= 0; v-- {
						gb.update(int32(v), bucket[v], target[v], gains[v])
					}
				}
				checkPlane(t, gb, bucket, target, gains)
			}
			if live := len(gb.dirs) - len(gb.free); live > len(mapFold(bucket, target, gains, unit)) {
				t.Fatalf("k=%d: %d live direction slots for fewer proposed directions; emptied ones were not released", k, live)
			}
		}
	}
}

// TestPlaneMatchesFoldEveryPass: after every SHP-k proposal pass the plane
// is the fold of the cached proposals — maintained by every patched pass and
// refilled only by sweeps, at every P and with a MoveCostPenalty — over cold
// runs and churned sessions, whose graph edits grow the gain tables and add
// vertices.
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
				if !st.candsStale {
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
			if maintained == 0 || passes < 16 {
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
			a.Add(randomGain(r), unitHalf)
		}
		for i := r.Intn(300); i > 0; i-- {
			b.Add(randomGain(r), unitHalf)
		}
		pa, pb := MatchHistograms(&a, &b, 0, 0)
		qb, qa := MatchHistograms(&b, &a, 0, 0)
		if !sameProbs(&pa, &qa) || !sameProbs(&pb, &qb) {
			t.Fatalf("trial %d: swapping the sides changed the tables", trial)
		}
	}
}

// TestWarmIterationAllocations: once the engine is warm, a k=32 refinement
// iteration allocates nothing — candidate lists live in fixed slots, so a
// patch never grows one — and in particular nothing per vertex, per bucket
// pair, or for fan-out bookkeeping (24 when the kernels still had it). The
// graph is sized so a per-vertex or per-pair allocation would be thousands.
func TestWarmIterationAllocations(t *testing.T) {
	g := randomBipartite(t, 5, 3000, 6000, 30000)
	opts := Options{K: 32, Direct: true, Seed: 3, MinMoveFraction: 1e-12}.withDefaults()
	st := mustDirectState(t, g, opts, 3)
	st.buildNeighborData()
	st.maxIters = 12
	st.refine() // warm: every scratch has seen sweep- and patch-regime batches
	if len(st.history) < 12 {
		t.Fatalf("converged after %d iterations; the warm-up needs 12", len(st.history))
	}
	if st.candsStale {
		// The measured runs would be sweeps, and no list would be patched.
		t.Fatal("the warm-up never reached a patched batch; the candidate lists do not exist yet")
	}
	iter := len(st.history)
	var objective int64
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
	if avg > 0 {
		t.Fatalf("warm iteration allocates %.1f objects; want none", avg)
	}
}

// TestDirHistMergeOrderFree: partial histograms merge to the same histogram
// in every order. The gains are drawn at P = 0.3,
// whose unit is no power of two, so a float sum of their objective values
// would round differently per order; the distributed master's fold relies
// on the integer sums, which do not.
func TestDirHistMergeOrderFree(t *testing.T) {
	r := rng.New(37)
	for trial := 0; trial < 50; trial++ {
		parts := make([]DirHist, 2+r.Intn(6))
		for i := range parts {
			for n := r.Intn(400); n > 0; n-- {
				if g := randomGain(r); r.Intn(4) == 0 {
					parts[i].Remove(g, unitThird)
				} else {
					parts[i].Add(g, unitThird)
				}
			}
		}
		var want DirHist
		for i := range parts {
			want.Merge(&parts[i])
		}
		for order := 0; order < 8; order++ {
			var got DirHist
			for _, i := range r.Perm(len(parts)) {
				got.Merge(&parts[i])
			}
			if got != want {
				t.Fatalf("trial %d: merge order %d gives another histogram", trial, order)
			}
		}
	}
}
