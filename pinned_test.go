package shp_test

import (
	"testing"

	"shp"
	"shp/internal/serve"
)

// pinnedGraph generates the small social ego-net graph every pinned case
// runs on; weighted rebuilds it with deterministic non-unit query weights.
func pinnedGraph(t *testing.T, weighted bool) *shp.Hypergraph {
	t.Helper()
	g, err := shp.GenerateSocialEgoNets(1500, 8, 50, 0.85, 21)
	if err != nil {
		t.Fatal(err)
	}
	g = shp.PruneTrivialQueries(g, 2)
	if !weighted {
		return g
	}
	return reweighted(t, g)
}

// hubGraph is churn-serve-hub's graph in miniature: a power-law bipartite
// graph with a few hub queries, reweighted like pinnedGraph when asked.
func hubGraph(t *testing.T, weighted bool) *shp.Hypergraph {
	t.Helper()
	g, err := shp.GenerateHubPowerLawBipartite(2000, 3250, 25000, 3.0, 0.002, 40, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !weighted {
		return g
	}
	return reweighted(t, g)
}

// reweighted rebuilds g with deterministic non-unit query weights.
func reweighted(t *testing.T, g *shp.Hypergraph) *shp.Hypergraph {
	t.Helper()
	b := shp.NewBuilder(g.NumQueries(), g.NumData())
	w := make([]int32, g.NumQueries())
	for q := range w {
		b.AddHyperedge(int32(q), g.QueryNeighbors(int32(q))...)
		w[q] = 1 + int32(q%3)
	}
	wg, err := b.SetQueryWeights(w).Build()
	if err != nil {
		t.Fatal(err)
	}
	return wg
}

// TestPinnedAssignments pins the default paths across commits: the
// equivalence suites compare the engines with themselves (schedules, worker
// counts, transports), this compares them with the values recorded at commit
// 2c8deeb, before the pairing-protocol and recursion-arity options were
// removed (the P = 0.3, penalty and hub rows at 5390159). A refactor that claims "results unchanged" must leave every row
// alone; a change that means to move results re-records them and says so.
func TestPinnedAssignments(t *testing.T) {
	type pin struct {
		sum   uint64 // serve.Checksum of the final assignment
		iters int    // Result.Iterations (sessions: summed over the epochs)
	}
	oneShot := func(opts shp.Options) func(*testing.T, *shp.Hypergraph) pin {
		return func(t *testing.T, g *shp.Hypergraph) pin {
			res, err := shp.Partition(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			return pin{serve.Checksum(res.Assignment), res.Iterations}
		}
	}
	// session replays epochs churn batches through a live Partitioner; a
	// budgeted one must hit its budget at least once.
	session := func(opts shp.Options, frac float64, epochs int) func(*testing.T, *shp.Hypergraph) pin {
		return func(t *testing.T, g *shp.Hypergraph) pin {
			p, err := shp.NewPartitioner(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			churn, err := shp.NewChurn(g, frac, 6)
			if err != nil {
				t.Fatal(err)
			}
			iters, bound := p.Result().Iterations, false
			for epoch := 0; epoch < epochs; epoch++ {
				d, err := churn.Next()
				if err != nil {
					t.Fatal(err)
				}
				if err := p.Apply(d); err != nil {
					t.Fatal(err)
				}
				res, err := p.Repartition()
				if err != nil {
					t.Fatal(err)
				}
				iters += res.Iterations
				bound = bound || res.Migrated == opts.MigrationBudget
			}
			if opts.MigrationBudget != 0 && !bound {
				t.Fatal("the migration budget never bound; the pinned case no longer covers the budget filter")
			}
			return pin{serve.Checksum(p.Assignment()), iters}
		}
	}
	// hub is churn-serve-hub in miniature: 41 epochs at 0.2 % churn, ten
	// iterations each, under a 2 % budget — the proposal plane's persistence
	// across epochs.
	hub := func(t *testing.T, g *shp.Hypergraph) pin {
		h := hubGraph(t, g.QueryWeighted())
		opts := shp.Options{K: 16, Direct: true, Seed: 5, MaxIters: 10, MigrationBudget: int64(h.NumData() / 50)}
		return session(opts, 0.002, 41)(t, h)
	}
	dist := func(t *testing.T, g *shp.Hypergraph) pin {
		res, err := shp.PartitionDistributed(g, shp.DistributedOptions{K: 4, Seed: 7, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return pin{serve.Checksum(res.Assignment), len(res.History)}
	}

	cases := []struct {
		name           string
		run            func(*testing.T, *shp.Hypergraph) pin
		unit, weighted pin
	}{
		{"SHP-2/K=8", oneShot(shp.Options{K: 8, Seed: 3}), pin{0x97718ac835264c04, 66}, pin{0xa30e30dc0b94cce9, 69}},
		{"SHP-2/K=12", oneShot(shp.Options{K: 12, Seed: 3}), pin{0x98a04916db0a7aa9, 101}, pin{0xbed637caa3564154, 128}},
		{"SHP-k/K=8", oneShot(shp.Options{K: 8, Direct: true, Seed: 3}), pin{0x9e88ea5009378249, 23}, pin{0x2480a7eb4d8109a0, 30}},
		// P = 0.3 and a MoveCostPenalty take SHP-k's proposal plane off the
		// exact grid (the refill arm).
		{"SHP-k/K=8/P=0.3", oneShot(shp.Options{K: 8, Direct: true, Seed: 3, P: 0.3}), pin{0xd61cc166e1b6726c, 40}, pin{0x201bffd69d3ed661, 12}},
		{"session/K=8/budget", session(shp.Options{K: 8, Direct: true, Seed: 5, MigrationBudget: 12}, 0.02, 3), pin{0x6a13a10cfbd533f, 34}, pin{0xf02cc52e9e538b1d, 70}},
		{"session/K=8/penalty", session(shp.Options{K: 8, Direct: true, Seed: 5, MoveCostPenalty: 0.05}, 0.02, 3), pin{0xf90d7dd6e0391cc1, 55}, pin{0xcdfdc80553633b72, 191}},
		{"session/hub/K=16/budget", hub, pin{0x1e6cb92f23d1349c, 210}, pin{0x7fd0124ef2ee3ed6, 209}},
		// distshp does not read query weights, so its two pins coincide.
		{"distshp/K=4", dist, pin{0x72071a025890160, 30}, pin{0x72071a025890160, 30}},
	}
	for _, c := range cases {
		for _, weighted := range []bool{false, true} {
			name, want := c.name+"/unit", c.unit
			if weighted {
				name, want = c.name+"/weighted", c.weighted
			}
			t.Run(name, func(t *testing.T) {
				if got := c.run(t, pinnedGraph(t, weighted)); got != want {
					t.Errorf("got pin{%#x, %d}, pinned pin{%#x, %d}", got.sum, got.iters, want.sum, want.iters)
				}
			})
		}
	}
}
