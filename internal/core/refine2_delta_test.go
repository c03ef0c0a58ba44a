package core

// Tests of the bisection (SHP-2) port of the shared incremental-gain
// kernel: patched accumulators must bit-equal a from-scratch rebuild under
// random move batches, forced sweeps must be invisible,
// and the hub-heavy churn-proportionality claim is pinned by deterministic
// work counters rather than wall time (the mirror of distshp's
// TestDistDeltaPatchProperty / TestDistDeltaCutsLateSuperstepBytes).

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"shp/internal/gen"
	"shp/internal/rng"
)

// TestBisectionDeltaPatchProperty applies random move batches through the
// real patch path (applyMovePatched + finishPatch + computeGains) and
// checks after every batch that the maintained side counts and the patched
// accumulators/gains of every vertex bit-equal a from-scratch rebuild.
// Asymmetric lookahead (tLeft != tRight) keeps the two sides on different
// gain tables, so table-routing mistakes cannot cancel out. Every few
// rounds a from-scratch recount fires too, which must change nothing.
func TestBisectionDeltaPatchProperty(t *testing.T) {
	for _, seed := range []uint64{3, 17, 99} {
		g := randomBipartite(t, seed, 60, 120, 700)
		opts := Options{K: 2, P: 0.5, Epsilon: 10}.withDefaults()
		b := coldBisection(g, opts, seed, 0, 0, 1, 2, 0.5, 10, 0, nil)
		b.computeGains()
		r := rng.New(seed ^ 0xBEEF)
		for round := 0; round < 25; round++ {
			if round > 0 && round%7 == 0 {
				// A from-scratch recount + resum.
				b.recountNeighborData()
				b.markAllActive()
				b.computeGains()
			}
			var movers []move
			seen := make(map[int32]bool)
			for i := 0; i < 1+r.Intn(8); i++ {
				v := int32(r.Intn(g.NumData()))
				if seen[v] {
					continue // a real batch moves each vertex at most once
				}
				seen[v] = true
				cur := b.side[v]
				b.side[v] = 1 - cur
				wv := int64(g.DataWeight(v))
				b.w[cur] -= wv
				b.w[1-cur] += wv
				b.applyMovePatched(v)
				movers = append(movers, move{v, int32(cur)})
			}
			b.finishPatch(movers)
			b.computeGains()

			ref := coldBisection(g, opts, seed, 0, 0, 1, 2, 0.5, 10, 0, nil)
			copy(ref.side, b.side)
			ref.recountWeights(weightOf(g))
			ref.recountNeighborData()
			ref.computeGains()
			for q := 0; q < g.NumQueries(); q++ {
				if b.n[0][q] != ref.n[0][q] || b.n[1][q] != ref.n[1][q] {
					t.Fatalf("seed %d round %d query %d: maintained counts (%d, %d) != rebuilt (%d, %d)",
						seed, round, q, b.n[0][q], b.n[1][q], ref.n[0][q], ref.n[1][q])
				}
			}
			for v := 0; v < g.NumData(); v++ {
				if b.acc[v] != ref.acc[v] {
					t.Fatalf("seed %d round %d vertex %d: patched accumulator %v != rebuilt %v",
						seed, round, v, b.acc[v], ref.acc[v])
				}
				if b.gains[v] != ref.gains[v] {
					t.Fatalf("seed %d round %d vertex %d: patched gain %v != rebuilt %v",
						seed, round, v, b.gains[v], ref.gains[v])
				}
			}
		}
	}
}

// TestBisectionRebuildScheduleInvariant checks that forced sweeps are
// invisible in the bisection engine, across seeds: a sweep every third
// batch (sweepEvery 3) produces the assignments and histories of sweeping
// every iteration, which TestIncrementalMatchesFullSHP2 ties to the patched
// default.
func TestBisectionRebuildScheduleInvariant(t *testing.T) {
	g := randomBipartite(t, 41, 3000, 6000, 24000)
	for _, seed := range []uint64{5, 11} {
		runBoth(t, g, Options{K: 8, Seed: seed, sweepEvery: 3})
	}
}

// TestBisectionDeltaCutsLateGainWork pins the tentpole claim for SHP-2 with
// deterministic counters: on a hub-heavy graph refined from a lightly
// perturbed warm start, the late iterations (everything after the first,
// which rebuilds all state on any schedule) must cost the patched engine at
// least 3x fewer Equation 1 work units than full recomputation every
// iteration (sweepEvery 1), while producing byte-identical sides and
// histories. Work units — table terms summed plus delta records folded —
// proxy the memory stream, so the floor cannot flake on machine load the way
// a wall-clock ratio would.
func TestBisectionDeltaCutsLateGainWork(t *testing.T) {
	numQ, numD := 1500, 2500
	g, err := gen.HubPowerLawBipartite(numQ, numD, int64(numD)*8, 2.1, 0.004, numD/8, 9)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{K: 2, P: 0.5, MinMoveFraction: 1e-9}.withDefaults()

	cold := coldBisection(g, opts, 11, 0, 0, 1, 1, 0.5, 0.05, 0, nil)
	sides := cold.run()
	home := append([]int8(nil), sides...)
	r := rng.New(7)
	for i := 0; i < numD/100; i++ { // ~1% churn
		v := r.Intn(numD)
		home[v] = 1 - home[v]
	}
	run := func(sweepEvery int) *bisection {
		o := opts
		o.sweepEvery = sweepEvery
		b := coldBisection(g, o, 13, 0, 0, 1, 1, 0.5, 0.05, 0, append([]int8(nil), home...))
		b.run()
		return b
	}
	inc := run(0)
	full := run(1)
	if !slices.Equal(inc.side, full.side) {
		t.Fatal("incremental and full warm refinements diverged")
	}
	if !reflect.DeepEqual(inc.history, full.history) {
		t.Fatalf("histories diverged: %+v vs %+v", inc.history, full.history)
	}
	if len(inc.history) < 2 {
		t.Fatal("warm refinement converged in one iteration; nothing late to measure")
	}
	var lateInc, lateFull int64
	for i := 1; i < len(inc.work); i++ {
		lateInc += inc.work[i].GainWork
		lateFull += full.work[i].GainWork
	}
	if lateInc <= 0 || lateFull <= 0 {
		t.Fatalf("degenerate work counters: inc %d, full %d", lateInc, lateFull)
	}
	if lateInc*3 > lateFull {
		t.Fatalf("late gain work: incremental %d vs full %d over %d iterations — less than the required 3x reduction",
			lateInc, lateFull, len(inc.history)-1)
	}
	t.Logf("late gain work over %d iterations: incremental %d vs full %d (%.1fx)",
		len(inc.history)-1, lateInc, lateFull, float64(lateFull)/float64(lateInc))
}

// BenchmarkBisectionDelta measures the bisection engine where it matters:
// hub-heavy warm-started refinement at a controlled churn level, with the
// recursion/induction machinery stripped away so the numbers isolate the
// per-iteration gain maintenance. A converged bisection's sides are
// perturbed by a known moved fraction and re-refined patched and with a
// sweep every iteration (sweepEvery 1) —
// identical results, so edges/s differences are pure engine savings.
func BenchmarkBisectionDelta(b *testing.B) {
	g, err := gen.HubPowerLawBipartite(12000, 20000, 160000, 2.1, 0.001, 2500, 5)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{K: 2, P: 0.5}.withDefaults()
	cold := coldBisection(g, opts, 11, 0, 0, 1, 1, 0.5, 0.05, 0, nil)
	sides := cold.run()
	perturb := func(frac float64) []int8 {
		home := append([]int8(nil), sides...)
		r := rng.New(7)
		for i := 0; i < int(frac*float64(len(home))); i++ {
			v := r.Intn(len(home))
			home[v] = 1 - home[v]
		}
		return home
	}
	for _, frac := range []float64{0.01, 0.05, 0.25} {
		home := perturb(frac)
		for _, engine := range []struct {
			name       string
			sweepEvery int
		}{{"incremental", 0}, {"full-rebuild", 1}} {
			b.Run(fmt.Sprintf("moved%g%%-%s", frac*100, engine.name), func(b *testing.B) {
				o := opts
				o.sweepEvery = engine.sweepEvery
				var iters int
				for i := 0; i < b.N; i++ {
					bis := coldBisection(g, o, 13, 0, 0, 1, 1, 0.5, 0.05, 0, home)
					bis.run()
					iters = len(bis.history)
				}
				b.ReportMetric(float64(iters), "iters")
				b.ReportMetric(float64(g.NumEdges())*float64(iters)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
			})
		}
	}
}

// naiveBisectionGain computes vertex v's Equation 1 state straight from the
// definition, with a fresh map count of every adjacent query's members per
// side — no maintained counts, no accumulators:
//
//	own  = Σ_q wq·T_cur[n_cur(q)−1]
//	oth  = Σ_q wq·T_oth[n_oth(q)]
//	gain = own − oth ∓ penalty   (− leaving home, + returning to it)
//
// in gain units, the penalty rounded to them. The sums are integers, so they
// must equal the engine's in any summation order.
func naiveBisectionGain(b *bisection, v int32) (own, oth, gain int64) {
	cur := b.side[v]
	for _, q := range b.g.DataNeighbors(v) {
		n := map[int8]int32{}
		for _, u := range b.g.QueryNeighbors(q) {
			n[b.side[u]]++
		}
		wq := int64(b.g.QueryWeight(q))
		own += wq * b.tables[cur].T[n[cur]-1]
		oth += wq * b.tables[1-cur].T[n[1-cur]]
	}
	gain = own - oth
	if p := b.opts.MoveCostPenalty; p > 0 && b.home != nil && b.home[v] >= 0 {
		pu := int64(math.Round(p / b.tables[0].Unit()))
		if cur == b.home[v] {
			gain -= pu
		} else {
			gain += pu
		}
	}
	return own, oth, gain
}

// TestBisectionGainMatchesEquation1 checks the two places the bisection
// evaluates Equation 1 — rebuildGain's accumulator and deriveGain over
// patched accumulators — against the naive reference, for unit and weighted
// queries, asymmetric lookahead, and the warm-start penalty.
func TestBisectionGainMatchesEquation1(t *testing.T) {
	arms := []struct {
		name           string
		weighted       bool
		tLeft, tRight  int
		penalty        float64
		penaltyNoHomes bool // every third vertex has no home side
	}{
		{"unit", false, 1, 1, 0, false},
		{"weighted", true, 1, 1, 0, false},
		{"lookahead", false, 3, 1, 0, false},
		{"lookaheadWeighted", true, 2, 5, 0, false},
		{"penalty", false, 1, 1, 0.25, true},
		{"penaltyWeightedLookahead", true, 4, 2, 0.1, true},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				g := randomBipartite(t, seed, 40, 70, 400)
				if arm.weighted {
					g = weightedBipartite(t, seed, 40, 70, 400)
				}
				opts := Options{K: arm.tLeft + arm.tRight, P: 0.5, MoveCostPenalty: arm.penalty}.withDefaults()
				var home []int8
				if arm.penalty > 0 {
					r := rng.New(seed ^ 0x40E)
					home = make([]int8, g.NumData())
					for i := range home {
						home[i] = int8(r.Intn(2))
						if arm.penaltyNoHomes && i%3 == 0 {
							home[i] = -1
						}
					}
				}
				propLeft := float64(arm.tLeft) / float64(arm.tLeft+arm.tRight)
				b := coldBisection(g, opts, seed, 0, 0, arm.tLeft, arm.tRight, propLeft, 10, 0, home)
				check := func(stage string) {
					t.Helper()
					for v := int32(0); int(v) < g.NumData(); v++ {
						own, oth, gain := naiveBisectionGain(b, v)
						if b.acc[v] != own-oth {
							t.Fatalf("seed %d %s vertex %d: accumulator %v, reference %v − %v",
								seed, stage, v, b.acc[v], own, oth)
						}
						if b.gains[v] != gain {
							t.Fatalf("seed %d %s vertex %d: gain %v, reference %v", seed, stage, v, b.gains[v], gain)
						}
					}
				}
				b.computeGains() // fresh state: every vertex through rebuildGain
				check("rebuilt")

				// One patched batch: movers resum, their queries' other
				// members go through deriveGain over patched accumulators.
				r := rng.New(seed ^ 0xBEEF)
				var movers []move
				for len(movers) < 5 {
					v := int32(r.Intn(g.NumData()))
					if slices.ContainsFunc(movers, func(m move) bool { return m.v == v }) {
						continue
					}
					cur := b.side[v]
					b.side[v] = 1 - cur
					b.applyMovePatched(v)
					movers = append(movers, move{v, int32(cur)})
				}
				b.finishPatch(movers)
				if !b.frontierValid || len(b.frontier) == g.NumData() {
					t.Fatalf("seed %d: patched batch did not leave a proper frontier", seed)
				}
				b.computeGains()
				check("patched")
			}
		})
	}
}
