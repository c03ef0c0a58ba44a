package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"shp/internal/hypergraph"
	"shp/internal/rng"
)

// The incremental refinement engine must be invisible: for a fixed seed,
// maintaining neighbor data in place and re-evaluating only frontier
// vertices has to produce byte-identical assignments and iteration
// histories to rebuilding everything from scratch each iteration. These
// tests pin that contract for SHP-2, SHP-k, weighted graphs, the pairing
// protocols, and warm starts, plus a property test for the maintained
// neighbor data itself.

// runBoth partitions g under opts' rebuild schedule (the default unless the
// config sets one), then with a full rebuild every iteration — the
// reference, which runs no patch code at all — and with no rebuild ever,
// and asserts identical outcomes.
func runBoth(t *testing.T, g *hypergraph.Bipartite, opts Options) {
	t.Helper()
	ri, err := Partition(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, period := range []int{1, -1} {
		o := opts
		o.NDRebuildEvery = period
		rf, err := Partition(g, o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ri.Assignment, rf.Assignment) {
			diff := 0
			for i := range ri.Assignment {
				if ri.Assignment[i] != rf.Assignment[i] {
					diff++
				}
			}
			t.Fatalf("period %d: assignments differ at %d/%d vertices", period, diff, len(ri.Assignment))
		}
		if ri.Iterations != rf.Iterations {
			t.Fatalf("period %d: iteration counts differ: %d vs %d", period, ri.Iterations, rf.Iterations)
		}
		if !reflect.DeepEqual(ri.History, rf.History) {
			n := min(len(ri.History), len(rf.History))
			for i := 0; i < n; i++ {
				if ri.History[i] != rf.History[i] {
					t.Fatalf("period %d: history diverges at %d: %+v vs %+v", period, i, ri.History[i], rf.History[i])
				}
			}
			t.Fatalf("period %d: history lengths differ: %d vs %d", period, len(ri.History), len(rf.History))
		}
	}
}

func TestIncrementalMatchesFullSHP2(t *testing.T) {
	g := randomBipartite(t, 11, 3000, 6000, 24000)
	for _, seed := range []uint64{1, 7, 42} {
		runBoth(t, g, Options{K: 8, Seed: seed})
	}
}

// TestIncrementalMatchesFullSmallNodes pins the engine on the recursion
// nodes production runs it on at depth: graphs of a few hundred records
// split down to leaf-sized nodes (K=128 on 600 records leaves four or five
// per bucket), where frontiers, patch groups and gain bins all degenerate.
func TestIncrementalMatchesFullSmallNodes(t *testing.T) {
	g := randomBipartite(t, 14, 300, 600, 2400)
	for _, opts := range []Options{
		{K: 128, Seed: 3},
		{K: 50, Seed: 3}, // non-power-of-two: uneven lookahead at every node
	} {
		runBoth(t, g, opts)
	}
	runBoth(t, weightedBipartite(t, 15, 200, 400, 1800), Options{K: 64, Seed: 4})
}

func TestIncrementalMatchesFullSHPk(t *testing.T) {
	g := randomBipartite(t, 12, 500, 900, 4000)
	for _, seed := range []uint64{1, 9} {
		runBoth(t, g, Options{K: 7, Direct: true, Seed: seed})
	}
}

func TestIncrementalMatchesFullWeighted(t *testing.T) {
	r := rng.New(99)
	numQ, numD := 2000, 4000
	b := hypergraph.NewBuilder(numQ, numD)
	for i := 0; i < 16000; i++ {
		b.AddEdge(int32(r.Intn(numQ)), int32(r.Intn(numD)))
	}
	dw := make([]int32, numD)
	for i := range dw {
		dw[i] = int32(1 + r.Intn(5))
	}
	qw := make([]int32, numQ)
	for i := range qw {
		qw[i] = int32(1 + r.Intn(4))
	}
	g, err := b.SetDataWeights(dw).SetQueryWeights(qw).Build()
	if err != nil {
		t.Fatal(err)
	}
	runBoth(t, g, Options{K: 6, Seed: 5})
	runBoth(t, g, Options{K: 6, Direct: true, Seed: 5})
}

func TestIncrementalMatchesFullConfigurations(t *testing.T) {
	g := randomBipartite(t, 13, 2500, 5000, 20000)
	warm := make([]int32, g.NumData())
	wr := rng.New(3)
	for i := range warm {
		warm[i] = int32(wr.Intn(8))
	}
	configs := []Options{
		{K: 8, Seed: 2, Initial: warm, MoveCostPenalty: 0.1},
		{K: 8, Seed: 2, Direct: true, Initial: warm, MoveCostPenalty: 0.1},
		{K: 8, Seed: 2, Objective: ObjCliqueNet},
		{K: 8, Seed: 2, Objective: ObjFanout, Direct: true},
		// Force the safety-net rebuild to fire mid-run: it must not change
		// anything either.
		{K: 8, Seed: 2, Direct: true, NDRebuildEvery: 3},
	}
	for i, opts := range configs {
		t.Run(fmt.Sprintf("config%d", i), func(t *testing.T) {
			runBoth(t, g, opts)
		})
	}
}

// TestIncrementalMatchesFullConvergedWarmStart pins the realistic warm-start
// path: a converged assignment perturbed by a small churn, re-refined with
// Options.Initial and a MoveCostPenalty. The incremental and full engines
// must produce byte-identical results through it, for both SHP-2 and SHP-k,
// and across penalty strengths (including zero). The random-warm configs in
// TestIncrementalMatchesFullConfigurations cover the balance-repair path;
// this covers the converged one, where most gains are negative and the
// penalty gate actually bites.
func TestIncrementalMatchesFullConvergedWarmStart(t *testing.T) {
	g := randomBipartite(t, 19, 2500, 5000, 20000)
	base, err := Partition(g, Options{K: 8, Seed: 6, Direct: true})
	if err != nil {
		t.Fatal(err)
	}
	perturb := func(frac float64) []int32 {
		warm := append([]int32(nil), base.Assignment...)
		r := rng.New(123)
		n := int(frac * float64(len(warm)))
		for i := 0; i < n; i++ {
			warm[r.Intn(len(warm))] = int32(r.Intn(8))
		}
		return warm
	}
	for _, tc := range []struct {
		name    string
		opts    Options
		churn   float64
		penalty float64
	}{
		{"shp2-penalty", Options{K: 8, Seed: 7}, 0.02, 0.1},
		{"shp2-nopenalty", Options{K: 8, Seed: 7}, 0.02, 0},
		{"shpk-penalty", Options{K: 8, Seed: 7, Direct: true}, 0.02, 0.1},
		{"shpk-heavypenalty", Options{K: 8, Seed: 7, Direct: true}, 0.1, 0.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			opts.Initial = perturb(tc.churn)
			opts.MoveCostPenalty = tc.penalty
			runBoth(t, g, opts)
		})
	}
}

// ndSnapshot captures the neighbor-data rows of a directState.
type ndSnapshot struct {
	mask     []uint64
	cnt      []int32
	wEntries int64
}

func snapshotND(st *directState) ndSnapshot {
	return ndSnapshot{
		mask:     slices.Clone(st.nd.mask),
		cnt:      slices.Clone(st.nd.cnt),
		wEntries: st.nd.wEntries,
	}
}

// TestMaintainedNDMatchesRebuild applies random move batches through the
// delta path and checks the maintained neighbor data (masks, counts, the
// weighted connectivity total) against a from-scratch rebuild after every
// batch.
func TestMaintainedNDMatchesRebuild(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		g := randomBipartite(t, seed, 50, 80, 400)
		opts := Options{K: 6, P: 0.5, Epsilon: 10, Direct: true}.withDefaults()
		st := newDirectState(g, opts, seed)
		st.buildNeighborData()
		r := rng.New(seed ^ 0xBEEF)
		for batch := 0; batch < 5; batch++ {
			var accepted []move
			seen := make(map[int32]bool)
			nMoves := 1 + r.Intn(20)
			for i := 0; i < nMoves; i++ {
				v := int32(r.Intn(g.NumData()))
				if seen[v] {
					continue // a real batch moves each vertex at most once
				}
				seen[v] = true
				from := st.bucket[v]
				to := int32(r.Intn(opts.K))
				if to == from {
					to = (to + 1) % int32(opts.K)
				}
				st.bucket[v] = to
				wv := int64(g.DataWeight(v))
				st.bucketW[from] -= wv
				st.bucketW[to] += wv
				accepted = append(accepted, move{v: v, from: from})
			}
			st.applyNDDeltas(accepted)
			got := snapshotND(st)
			st.buildNeighborData()
			want := snapshotND(st)
			if !reflect.DeepEqual(got, want) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPatchedStateMatchesRebuild verifies the exact-patching invariant
// directly: after a refinement iteration whose batch went through the patch
// regime, every inactive (non-mover) vertex's patched Equation 1 state —
// base term and candidate accumulators, including refcounts — must equal a
// from-scratch rebuild bit for bit.
func TestPatchedStateMatchesRebuild(t *testing.T) {
	for _, seed := range []uint64{17, 23, 99} {
		g := randomBipartite(t, 21, 60, 100, 500)
		opts := Options{K: 5, P: 0.5, Direct: true}.withDefaults()
		st := newDirectState(g, opts, seed)
		st.buildNeighborData()
		patched := 0
		for iter := 0; iter < 6; iter++ {
			st.computeProposals()
			accepted := st.applyMoves(iter)
			st.applyNDDeltas(accepted)
			if len(accepted) == 0 {
				break
			}
			// applyNDDeltas applies every batch as batch 0.
			if mode, _ := st.IterPolicy.Next(0, int64(len(accepted)), g.NumData()); mode != Patch {
				continue // sweep regime: everyone is active, nothing cached
			}
			if st.candsStale {
				t.Fatalf("seed %d iter %d: a patched batch left the candidate lists unwritten", seed, iter)
			}
			ref := newDirectState(g, opts, seed)
			copy(ref.bucket, st.bucket)
			ref.recountWeights()
			ref.buildNeighborData()
			for v := 0; v < g.NumData(); v++ {
				if st.active[v] == activeRebuild {
					continue // movers are rebuilt before the next selection
				}
				ref.rebuildVertex(v)
				if st.propBase[v] != ref.propBase[v] {
					t.Fatalf("seed %d iter %d vertex %d: patched base %v != rebuilt %v",
						seed, iter, v, st.propBase[v], ref.propBase[v])
				}
				if !slices.Equal(st.cand[v], ref.cand[v]) {
					t.Fatalf("seed %d iter %d vertex %d: patched candidates %v != rebuilt %v",
						seed, iter, v, st.cand[v], ref.cand[v])
				}
				patched++
			}
		}
		if patched == 0 {
			t.Logf("seed %d: no patch-regime iterations exercised", seed)
		}
	}
}

// TestDuplicateMoveBatchDeltas exercises repeated deltas hitting the same
// query from several movers in one batch (counts crossing zero both ways on
// shared rows).
func TestDuplicateMoveBatchDeltas(t *testing.T) {
	g := randomBipartite(t, 31, 10, 40, 200) // dense: every query sees many movers
	opts := Options{K: 4, P: 0.5, Epsilon: 10, Direct: true}.withDefaults()
	st := newDirectState(g, opts, 8)
	st.buildNeighborData()
	var accepted []move
	for v := int32(0); v < 20; v++ {
		from := st.bucket[v]
		to := (from + 1 + v%3) % 4
		st.bucket[v] = to
		st.bucketW[from]--
		st.bucketW[to]++
		accepted = append(accepted, move{v: v, from: from})
	}
	st.applyNDDeltas(accepted)
	got := snapshotND(st)
	st.buildNeighborData()
	if want := snapshotND(st); !reflect.DeepEqual(got, want) {
		t.Fatal("maintained neighbor data diverged from rebuild after a dense move batch")
	}
}

// TestPinRowsReshapeInPlace checks the rows NewPinRows carves from shared
// slabs: Reshape within a row's width reuses its storage and empties it,
// past the width it allocates, and neither touches the neighbouring rows.
func TestPinRowsReshapeInPlace(t *testing.T) {
	rows := NewPinRows(3, func(i int) int { return []int{70, 4, 8}[i] })
	for i, r := range rows {
		r.Inc(int32(i))
		r.Inc(3)
	}
	small := rows[0].Reshape(6)
	if small.Live() != 0 || &small.cnt[0] != &rows[0].cnt[0] {
		t.Fatal("Reshape within the width did not empty the row's own storage")
	}
	small.Inc(5)
	grown := rows[1].Reshape(12) // the width of rows 1 and 2 together
	if grown.Live() != 0 || len(grown.cnt) != 12 || &grown.cnt[0] == &rows[1].cnt[0] {
		t.Fatal("Reshape past the width did not allocate")
	}
	grown.Inc(11)
	for i, r := range rows[1:] {
		if r.Count(int32(i+1)) != 1 || r.Count(3) != 1 || r.Live() != 2 {
			t.Fatalf("row %d changed under its neighbours' Reshape", i+1)
		}
	}
}

// TestPinRowsSurviveSessionEdits drives every path that edits the
// neighbor-data rows outside a move batch — a Session's splices of added
// and removed hyperedges, and the balance repair that a data-weight change
// forces — and after each Repartition checks the rows against a fresh count:
// every row equals its members' buckets counted anew, each mask bit is set
// exactly when its count is positive, a removed hyperedge's row is all zero,
// and Σ_q w_q·|mask_q| is the maintained wEntries.
func TestPinRowsSurviveSessionEdits(t *testing.T) {
	for name, g := range oracleGraphs(t) {
		s, err := NewSession(g.Clone(), Options{K: 8, Direct: true, Seed: 4, Epsilon: 0.02, MaxIters: 8})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Repartition(); err != nil {
			t.Fatal(err)
		}
		r := rng.New(41)
		var removed []int32
		added, repaired := 0, 0
		for epoch := 0; epoch < 8; epoch++ {
			before := s.Assignment()
			d := oracleChurn(s, epoch, r)
			for v := int32(0); v < 60; v++ {
				if before[v] == int32(epoch) {
					d.SetDataWeight(v, 5) // bucket `epoch` now sits far over its cap
				}
			}
			for _, op := range d.Ops {
				switch op.Kind {
				case hypergraph.OpRemoveHyperedge:
					removed = append(removed, op.Q)
				case hypergraph.OpAddHyperedge:
					added++
				}
			}
			if err := s.Apply(d); err != nil {
				t.Fatal(err)
			}
			// The first proposal pass sees the state the sync left; a mover
			// there can only be a repair move.
			first := true
			s.st.afterProposals = func() {
				if first {
					first = false
					for v := range before {
						if s.st.bucket[v] != before[v] {
							repaired++
							break
						}
					}
				}
			}
			if _, err := s.Repartition(); err != nil {
				t.Fatal(err)
			}
			st, nd := s.st, s.st.nd
			nq := st.g.NumQueries()
			if len(nd.mask) != nq*nd.w || len(nd.cnt) != nq*nd.k {
				t.Fatalf("%s epoch %d: %d mask words and %d counts for %d queries", name, epoch, len(nd.mask), len(nd.cnt), nq)
			}
			if bad := rowInvariantViolation(nd); bad != "" {
				t.Fatalf("%s epoch %d: %s", name, epoch, bad)
			}
			fresh := make([]int32, st.k)
			var wEntries int64
			for q := range int32(nq) {
				clear(fresh)
				for _, v := range st.g.QueryNeighbors(q) {
					fresh[st.bucket[v]]++
				}
				if got := nd.row(q).cnt; !slices.Equal(got, fresh) {
					t.Fatalf("%s epoch %d query %d: row %v, members count %v", name, epoch, q, got, fresh)
				}
				wEntries += int64(st.g.QueryWeight(q)) * int64(nd.row(q).Live())
			}
			for _, q := range removed {
				if nd.row(q).Live() != 0 || slices.Max(nd.row(q).cnt) != 0 {
					t.Fatalf("%s epoch %d: removed query %d keeps row %v", name, epoch, q, nd.row(q).cnt)
				}
			}
			if wEntries != nd.wEntries {
				t.Fatalf("%s epoch %d: Σ w·|mask| = %d, maintained wEntries %d", name, epoch, wEntries, nd.wEntries)
			}
		}
		if len(removed) == 0 || added == 0 || repaired == 0 {
			t.Fatalf("%s: %d removed, %d added hyperedges, %d repaired epochs; some edit path went undriven", name, len(removed), added, repaired)
		}
	}
}
