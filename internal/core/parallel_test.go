package core

import (
	"reflect"
	"testing"

	"shp/internal/gen"
	"shp/internal/partition"
)

// The tentpole contract of the parallel plane: Options.Parallelism decides
// only how fast refinement runs, never what it computes. Assignments,
// iteration histories, AND work counters must be byte-identical for every
// worker count — on cold runs and across warm session epochs, for both
// engines. The graphs are sized past the shard thresholds (gainBinShardSize,
// histShardMin) so the multi-shard fold paths are actually exercised, and
// one config uses a non-dyadic P so histogram sums leave the trivially
// exact regime of integer-ish table values.

func comparePar(t *testing.T, label string, base, got *Result) {
	t.Helper()
	if !reflect.DeepEqual(base.Assignment, got.Assignment) {
		diff := 0
		for i := range base.Assignment {
			if base.Assignment[i] != got.Assignment[i] {
				diff++
			}
		}
		t.Fatalf("%s: assignments differ at %d/%d vertices", label, diff, len(base.Assignment))
	}
	if !reflect.DeepEqual(base.History, got.History) {
		t.Fatalf("%s: iteration histories diverge", label)
	}
	if !reflect.DeepEqual(base.Work, got.Work) {
		t.Fatalf("%s: work-counter histories diverge", label)
	}
	if base.Iterations != got.Iterations {
		t.Fatalf("%s: iteration counts diverge: %d vs %d", label, base.Iterations, got.Iterations)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	configs := []struct {
		name string
		nq   int
		nd   int
		e    int
		opts Options
	}{
		// SHP-2 recursive, |D| past gainBinShardSize: multi-shard bin sync
		// and coin phase.
		{"SHP2", 6000, 20000, 80000, Options{K: 8, Seed: 21}},
		// SHP-k direct, |D| past histShardMin: multi-shard pair histograms.
		{"SHPk", 4000, 12000, 50000, Options{K: 8, Direct: true, Seed: 21}},
		// Non-dyadic P: gain tables off the integer-friendly values, so the
		// histogram folds genuinely depend on their (fixed) boundaries.
		{"SHPkP03", 3000, 9000, 36000, Options{K: 8, Direct: true, Seed: 33, P: 0.3}},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			g := randomBipartite(t, 101, tc.nq, tc.nd, tc.e)
			serial := tc.opts
			serial.Parallelism = 1
			base, err := Partition(g, serial)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3, 8} {
				o := tc.opts
				o.Parallelism = workers
				got, err := Partition(g, o)
				if err != nil {
					t.Fatal(err)
				}
				comparePar(t, tc.name+"/workers="+string(rune('0'+workers)), base, got)
			}
		})
	}
}

// TestParallelMatchesSerialWarmSession runs the same contract across warm
// session epochs: Apply churn, Repartition, and require every epoch's
// assignment, history, and work counters to match the serial session's,
// for both the direct warm engine and a recursive initial partition. The
// serial session itself is checked against the rebuilt period-1 reference
// (see repartitionRebuilt), so the suite does not only compare the warm
// engine to itself.
func TestParallelMatchesSerialWarmSession(t *testing.T) {
	type epochResult struct {
		asgn partition.Assignment
		hist []IterStats
		work []WorkStats
	}
	run := func(t *testing.T, direct bool, workers int, rebuilt bool) []epochResult {
		t.Helper()
		g := randomBipartite(t, 77, 3500, 11000, 46000)
		opts := Options{K: 8, Direct: direct, Seed: 9, Parallelism: workers}
		repartition := (*Session).Repartition
		if rebuilt {
			opts.NDRebuildEvery = 1
			repartition = repartitionRebuilt
		}
		s, err := NewSession(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		c, err := gen.NewChurn(g, 0.03, 17)
		if err != nil {
			t.Fatal(err)
		}
		var out []epochResult
		for epoch := 0; epoch < 3; epoch++ {
			d, err := c.Next()
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Apply(d); err != nil {
				t.Fatal(err)
			}
			r, err := repartition(s)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, epochResult{
				asgn: append(partition.Assignment(nil), r.Assignment...),
				hist: append([]IterStats(nil), r.History...),
				work: append([]WorkStats(nil), r.Work...),
			})
		}
		return out
	}
	for _, mode := range []struct {
		name   string
		direct bool
	}{{"direct", true}, {"recursiveStart", false}} {
		t.Run(mode.name, func(t *testing.T) {
			base := run(t, mode.direct, 1, false)
			for e, ref := range run(t, mode.direct, 1, true) {
				if !reflect.DeepEqual(base[e].asgn, ref.asgn) || !reflect.DeepEqual(base[e].hist, ref.hist) {
					t.Fatalf("epoch %d: serial session diverges from the rebuilt period-1 reference", e)
				}
			}
			for _, workers := range []int{2, 3, 8} {
				got := run(t, mode.direct, workers, false)
				for e := range base {
					if !reflect.DeepEqual(base[e].asgn, got[e].asgn) {
						t.Fatalf("workers=%d epoch %d: assignments diverge from serial", workers, e)
					}
					if !reflect.DeepEqual(base[e].hist, got[e].hist) {
						t.Fatalf("workers=%d epoch %d: histories diverge from serial", workers, e)
					}
					if !reflect.DeepEqual(base[e].work, got[e].work) {
						t.Fatalf("workers=%d epoch %d: work counters diverge from serial", workers, e)
					}
				}
			}
		})
	}
}

// TestParallelPatchRaceHammer drives the parallel patch paths at high
// parallelism so the -race CI job interleaves them aggressively: a cold
// SHP-2 run (the range-sharded member-patch pass of finishPatch, the
// sharded bin sync, and the per-shard coin phase), plus a churned direct
// session (the kernel's owner-routed ndApplyMoveBatch and the member-patch
// pass). Correctness of the results themselves is pinned by
// the equivalence tests above; this test exists to give the race detector
// real concurrent traffic over the patch paths.
func TestParallelPatchRaceHammer(t *testing.T) {
	g := randomBipartite(t, 55, 6000, 20000, 80000)
	if _, err := Partition(g, Options{K: 8, Seed: 3, Parallelism: 8}); err != nil {
		t.Fatal(err)
	}

	gs := randomBipartite(t, 56, 3000, 10000, 42000)
	s, err := NewSession(gs, Options{K: 8, Direct: true, Seed: 3, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	c, err := gen.NewChurn(gs, 0.05, 29)
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 2; epoch++ {
		d, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Apply(d); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Repartition(); err != nil {
			t.Fatal(err)
		}
	}
}
