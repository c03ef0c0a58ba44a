package core

// Tests of the active-frontier machinery: per-iteration cost must track the
// moving frontier, not |D|. The delta tests (refine2_delta_test.go) pin the
// Equation 1 gain work alone; these pin the whole per-iteration loop — gain
// work plus the scan work of the sync/coin/apply/trim phases — because a
// frontier engine that still scans all of |D| to find its frontier would
// pass the former and fail here.

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"shp/internal/gen"
	"shp/internal/rng"
)

// TestRadixSortInt32 pins the counting sort the frontier assemblies rely on
// for canonical ascending order against the standard library, across sizes
// straddling the comparison-sort cutoff and bounds straddling the digit
// width (1, 2, and 3 counting passes).
func TestRadixSortInt32(t *testing.T) {
	r := rng.New(99)
	for _, n := range []int{0, 1, 2, frontierRadixMin - 1, frontierRadixMin, 1000, 20000} {
		for _, bound := range []int32{1, 2000, 50000, 5 << 20} {
			a := make([]int32, n)
			for i := range a {
				a[i] = int32(r.Uint64n(uint64(bound)))
			}
			want := append([]int32(nil), a...)
			slices.Sort(want)
			scratch := make([]int32, n)
			radixSortInt32(a, scratch, bound)
			if !slices.Equal(a, want) {
				t.Fatalf("n=%d bound=%d: radix sort diverged from reference", n, bound)
			}
		}
	}
}

// frontierWarmStart returns converged sides with a small deterministic
// fraction flipped — the near-converged regime where idle iterations
// dominate.
func frontierWarmStart(t testing.TB, sides []int8, frac float64) []int8 {
	t.Helper()
	home := append([]int8(nil), sides...)
	r := rng.New(7)
	for i := 0; i < int(frac*float64(len(home))); i++ {
		v := r.Intn(len(home))
		home[v] = 1 - home[v]
	}
	return home
}

// TestBisectionFrontierCutsIdleIterationWork pins the tentpole claim with
// deterministic counters: refining a lightly perturbed warm start, the late
// iterations (everything after the first, which evaluates all state on any
// schedule) must cost the frontier engine at least 5x fewer gain-plus-scan
// work units than a full recomputation every iteration (sweepEvery 1), while
// producing byte-identical sides and histories. GainWork counts Equation 1
// table terms and folded delta records; ScanWork counts per-vertex visits in
// the gain, bin-sync, coin, apply, and trim phases — together they proxy the
// whole iteration's memory stream, so an O(|D|) scan hiding anywhere in the
// loop fails the floor even if the gain math itself is frontier-sized.
func TestBisectionFrontierCutsIdleIterationWork(t *testing.T) {
	numQ, numD := 1500, 2500
	g, err := gen.HubPowerLawBipartite(numQ, numD, int64(numD)*8, 2.1, 0.004, numD/8, 9)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{K: 2, P: 0.5, MinMoveFraction: 1e-9}.withDefaults()

	cold := coldBisection(g, opts, 11, 0, 0, 1, 1, 0.5, 0.05, 0, nil)
	home := frontierWarmStart(t, cold.run(), 0.003)
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
	if len(inc.work) != len(inc.history) || len(full.work) != len(full.history) {
		t.Fatalf("work stats not per-iteration: %d/%d vs %d/%d",
			len(inc.work), len(inc.history), len(full.work), len(full.history))
	}
	if len(inc.work) < 2 {
		t.Fatal("warm refinement converged in one iteration; nothing late to measure")
	}
	var lateInc, lateFull int64
	for _, w := range inc.work[1:] {
		lateInc += w.GainWork + w.ScanWork
	}
	for _, w := range full.work[1:] {
		lateFull += w.GainWork + w.ScanWork
	}
	if lateInc <= 0 || lateFull <= 0 {
		t.Fatalf("degenerate work counters: inc %d, full %d", lateInc, lateFull)
	}
	if lateInc*5 > lateFull {
		t.Fatalf("late gain+scan work: frontier %d vs full %d over %d iterations — less than the required 5x reduction",
			lateInc, lateFull, len(inc.work)-1)
	}
	// The frontier itself must shrink below |D| once the engine settles;
	// period 1 pins it at |D| every iteration.
	last := inc.work[len(inc.work)-1]
	if last.Frontier >= int64(numD) {
		t.Fatalf("final iteration frontier %d did not drop below |D| = %d", last.Frontier, numD)
	}
	if fullLast := full.work[len(full.work)-1]; fullLast.Frontier != int64(numD) {
		t.Fatalf("period 1 reported frontier %d, want |D| = %d", fullLast.Frontier, numD)
	}
	t.Logf("late gain+scan work over %d iterations: frontier %d vs full %d (%.1fx); final frontier %d of %d",
		len(inc.work)-1, lateInc, lateFull, float64(lateFull)/float64(lateInc), last.Frontier, numD)
}

// BenchmarkConvergedIteration measures the regime the tentpole is about: a
// warm, nearly converged hub-heavy bisection where under 1% of the vertices
// still move. Reported metrics make the sublinearity visible per iteration —
// frontier/iter (vertices the gain pass visited) and work/iter (gain+scan
// units) — so a regression that reintroduces an O(|D|) scan shows up in the
// bench smoke numbers even when wall time hides it behind memory bandwidth.
func BenchmarkConvergedIteration(b *testing.B) {
	g, err := gen.HubPowerLawBipartite(60000, 100000, 800000, 2.1, 0.0002, 400, 5)
	if err != nil {
		b.Fatal(err)
	}
	// Run to true convergence (moved == 0) instead of the default moved-
	// fraction cutoff: the whole point is the cost of the near-idle tail.
	opts := Options{K: 2, P: 0.5, MinMoveFraction: 1e-9}.withDefaults()
	cold := coldBisection(g, opts, 11, 0, 0, 1, 1, 0.5, 0.05, 0, nil)
	home := frontierWarmStart(b, cold.run(), 0.001)
	for _, engine := range []struct {
		name       string
		sweepEvery int
	}{{"frontier", 0}, {"full-rebuild", 1}} {
		b.Run(fmt.Sprintf("moved0.1%%-%s", engine.name), func(b *testing.B) {
			o := opts
			o.sweepEvery = engine.sweepEvery
			var iters, frontier, work int64
			for i := 0; i < b.N; i++ {
				bis := coldBisection(g, o, 13, 0, 0, 1, 1, 0.5, 0.05, 0, home)
				bis.run()
				// Per-iteration metrics over the late iterations only:
				// iteration 0 evaluates everything on any schedule, and folding
				// it in would hide exactly the sublinearity being measured.
				iters, frontier, work = 0, 0, 0
				for _, w := range bis.work[1:] {
					iters++
					frontier += w.Frontier
					work += w.GainWork + w.ScanWork
				}
			}
			if iters == 0 {
				b.Fatal("warm refinement converged in one iteration; nothing late to measure")
			}
			b.ReportMetric(float64(iters), "late-iters")
			b.ReportMetric(float64(frontier)/float64(iters), "frontier/iter")
			b.ReportMetric(float64(work)/float64(iters), "work/iter")
			b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(iters*int64(b.N)), "ns/iter")
		})
	}
}

// TestPeriodOneIsFullRecomputation pins that a sweep forced every batch
// (sweepEvery 1) is plain full per-iteration recomputation and nothing more:
// every iteration's gain pass visits all of |D| and counts exactly one
// rebuild of every vertex — 2|E| table terms for a bisection (both sides' terms per
// incidence), |E| neighbor queries walked for SHP-k — so no patch was
// collected or folded for a batch the next iteration rebuilt over.
func TestPeriodOneIsFullRecomputation(t *testing.T) {
	g, err := gen.HubPowerLawBipartite(1500, 2500, 20000, 2.1, 0.004, 300, 9)
	if err != nil {
		t.Fatal(err)
	}
	numD, numE := int64(g.NumData()), int64(g.NumEdges())
	check := func(t *testing.T, work []WorkStats, perEdge int64) {
		t.Helper()
		if len(work) < 3 {
			t.Fatalf("only %d iterations; nothing after the first to check", len(work))
		}
		for _, w := range work {
			if w.Frontier != numD || w.GainWork != perEdge*numE {
				t.Fatalf("iteration %d: frontier %d, gain work %d; want |D| = %d and %d·|E| = %d",
					w.Iter, w.Frontier, w.GainWork, numD, perEdge, perEdge*numE)
			}
		}
	}
	t.Run("SHP2", func(t *testing.T) {
		opts := Options{K: 2, P: 0.5, sweepEvery: 1, MinMoveFraction: 1e-9}.withDefaults()
		b := coldBisection(g, opts, 11, 0, 0, 1, 1, 0.5, 0.05, 0, nil)
		b.run()
		check(t, b.work, 2)
	})
	t.Run("SHPk", func(t *testing.T) {
		res, err := Partition(g, Options{K: 8, Direct: true, Seed: 11, sweepEvery: 1, MaxIters: 12})
		if err != nil {
			t.Fatal(err)
		}
		check(t, res.Work, 1)
	})
}
