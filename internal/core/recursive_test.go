package core

import (
	"fmt"
	"slices"
	"testing"

	"shp/internal/hypergraph"
	"shp/internal/partition"
	"shp/internal/rng"
)

// TestInheritedStartMatchesColdStart checks the recursion's hand-off. Over
// two recursion levels, every child a split builds must start where a cold
// start on the child's own graph would: the sides initialSplit draws (with
// repairBalance on a warm start) at the child's level, seed and caps, their
// side weights, the counts recountNeighborData makes of them, and the
// child's home sides. K = 3 and 5 give odd spans (propLeft ≠ ½) and span-1
// children, which are assigned, not built; K = 2 builds none. The warm arm
// starts from an Initial that puts most vertices in bucket 0, so sides go
// over their caps and get repaired, and vertices whose bucket left a node's
// range carry no home side.
func TestInheritedStartMatchesColdStart(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g := inheritFixture(t, weighted)
		for _, warm := range []bool{false, true} {
			for _, k := range []int{2, 3, 5, 128} {
				what := fmt.Sprintf("weighted=%v warm=%v K=%d", weighted, warm, k)
				opts := Options{K: k, Seed: 7}
				if warm {
					opts.Initial = skewedInitial(g.NumData(), k)
				}
				opts = opts.withDefaults()
				r := &recursion{g: g, opts: opts, levels: levelsFor(k),
					ideal: float64(g.TotalDataWeight()) / float64(k), assignment: make(partition.Assignment, g.NumData())}
				all := make([]int32, g.NumData())
				for i := range all {
					all[i] = int32(i)
				}
				root := rtask{sub: hypergraph.PruneTrivialQueries(g, 2), data: all, lo: 0, hi: int32(k)}
				root.start = r.drawStart(0, root, g.TotalDataWeight())
				tasks := []rtask{root}
				built := 0
				for level := 0; level < 2; level++ {
					var next []rtask
					for _, task := range tasks {
						children := r.splitTask(task, level).children
						for _, c := range children {
							sameColdStart(t, fmt.Sprintf("%s level %d [%d,%d)", what, level+1, c.lo, c.hi), r, level+1, c)
						}
						built += len(children)
						next = append(next, children...)
					}
					tasks = next
				}
				if want := map[int]int{2: 0, 3: 1, 5: 3, 128: 6}[k]; built != want {
					t.Fatalf("%s: %d children built over two levels, want %d", what, built, want)
				}
			}
		}
	}
}

// sameColdStart fails unless child c's inherited start equals the cold start
// drawn and counted on c's graph at level.
func sameColdStart(t *testing.T, what string, r *recursion, level int, c rtask) {
	t.Helper()
	seed, kLeft, kRight, propLeft, eps := r.node(level, c.lo, c.hi)
	home := warmStartSides(r.opts, c, int32(kLeft))
	cold := coldBisection(c.sub, r.opts, seed, level, int(c.lo), kLeft, kRight, propLeft, eps, r.ideal, home)
	got := c.start
	switch {
	case !slices.Equal(got.side, cold.side):
		t.Fatalf("%s: inherited sides differ from the cold draw", what)
	case got.w != cold.w:
		t.Fatalf("%s: inherited side weights %v, cold %v", what, got.w, cold.w)
	case !slices.Equal(got.n[0], cold.n[0]) || !slices.Equal(got.n[1], cold.n[1]):
		t.Fatalf("%s: inherited side counts differ from the recount", what)
	case !slices.Equal(got.home, home) || (got.home == nil) != (home == nil):
		t.Fatalf("%s: inherited home sides differ", what)
	}
}

// inheritFixture is a random graph with, optionally, data and query weights.
func inheritFixture(t *testing.T, weighted bool) *hypergraph.Bipartite {
	t.Helper()
	const numQ, numD = 600, 900
	r := rng.New(31)
	b := hypergraph.NewBuilder(numQ, numD)
	for i := 0; i < 4500; i++ {
		b.AddEdge(int32(r.Intn(numQ)), int32(r.Intn(numD)))
	}
	if weighted {
		dw, qw := make([]int32, numD), make([]int32, numQ)
		for i := range dw {
			dw[i] = int32(1 + r.Intn(6))
		}
		for i := range qw {
			qw[i] = int32(1 + r.Intn(4))
		}
		b.SetDataWeights(dw).SetQueryWeights(qw)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// skewedInitial puts two vertices in three in bucket 0 and the rest in
// random buckets.
func skewedInitial(n, k int) partition.Assignment {
	r := rng.New(uint64(k))
	a := make(partition.Assignment, n)
	for i := range a {
		if i%3 == 0 {
			a[i] = int32(r.Intn(k))
		}
	}
	return a
}
