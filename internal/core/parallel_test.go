package core

import (
	"fmt"
	"reflect"
	"testing"

	"shp/internal/gen"
)

// Options.Parallelism is how many recursion tasks of SHP-2 refine at once;
// every kernel inside a task runs on one goroutine, and SHP-k ignores it.
// The contract: it decides only how fast a run goes, never what it computes.
// Assignments, iteration histories AND work counters must be byte-identical
// for every count — on cold runs, at a P that is no power of two, and for a
// session whose warm epochs start from a recursive partition.

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
		name      string
		nq, nd, e int
		opts      Options
	}{
		{"SHP2", 6000, 20000, 80000, Options{K: 8, Seed: 21}},
		{"SHP2P03", 3000, 9000, 36000, Options{K: 8, Seed: 33, P: 0.3}},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			g := randomBipartite(t, 101, tc.nq, tc.nd, tc.e)
			var base *Result
			for _, workers := range []int{1, 2, 8} {
				o := tc.opts
				o.Parallelism = workers
				got, err := Partition(g, o)
				if err != nil {
					t.Fatal(err)
				}
				if base == nil {
					base = got
					continue
				}
				comparePar(t, fmt.Sprintf("%s/workers=%d", tc.name, workers), base, got)
			}
		})
	}
}

// TestParallelMatchesSerialWarmSession: the recursive initial partition, then
// churned warm epochs. The serial session is also checked against the rebuilt
// period-1 reference (see repartitionRebuilt), so the suite does not only
// compare the warm engine to itself.
func TestParallelMatchesSerialWarmSession(t *testing.T) {
	t.Run("recursiveStart", func(t *testing.T) {
		run := func(workers int, rebuilt bool) []*Result {
			g := randomBipartite(t, 77, 3500, 11000, 46000)
			opts := Options{K: 8, Seed: 9, Parallelism: workers}
			repartition := (*Session).Repartition
			if rebuilt {
				opts.sweepEvery = 1
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
			out := []*Result{s.Result()}
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
				out = append(out, r)
			}
			return out
		}
		base := run(1, false)
		for e, ref := range run(1, true) {
			if !reflect.DeepEqual(base[e].Assignment, ref.Assignment) || !reflect.DeepEqual(base[e].History, ref.History) {
				t.Fatalf("epoch %d: serial session diverges from the rebuilt period-1 reference", e)
			}
		}
		for _, workers := range []int{2, 8} {
			for e, got := range run(workers, false) {
				comparePar(t, fmt.Sprintf("workers=%d/epoch=%d", workers, e), base[e], got)
			}
		}
	})
}

// TestParallelPatchRaceHammer gives the race detector real concurrent
// traffic: a cold SHP-2 run at Parallelism 8, whose recursion tasks refine
// at once and write disjoint entries of the shared assignment. Correctness
// of the results themselves is pinned by the equivalence test above.
func TestParallelPatchRaceHammer(t *testing.T) {
	g := randomBipartite(t, 55, 6000, 20000, 80000)
	if _, err := Partition(g, Options{K: 8, Seed: 3, Parallelism: 8}); err != nil {
		t.Fatal(err)
	}
}
