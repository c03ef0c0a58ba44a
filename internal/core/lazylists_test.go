package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"shp/internal/hypergraph"
	"shp/internal/rng"
)

// A fused sweep selects from the dense accumulators and leaves the candidate
// lists unwritten until a patched batch needs them (directState, "Sweeps").
// These tests pin that laziness as unobservable: a run whose lists are forced
// into existence after every proposal pass must produce the same assignment,
// history and work counters, and the lists a lazy run materialises late must
// be the ones Equation 1 defines.

// listOracle is the afterProposals hook of one engine: eager forces the lists
// after every pass; a lazy engine instead checks, at the first pass that ran
// on lists materialised since the pass before, the whole per-vertex state
// against the naive reference.
type listOracle struct {
	t     *testing.T
	st    *directState
	label string
	eager bool

	prevStale   bool
	fused       int // passes that left the lists unwritten
	transitions int // sweep→patch transitions seen
}

func hookLists(t *testing.T, st *directState, label string, eager bool) *listOracle {
	o := &listOracle{t: t, st: st, label: label, eager: eager}
	st.afterProposals = o.check
	return o
}

func (o *listOracle) check() {
	st, t := o.st, o.t
	t.Helper()
	stale := st.candsStale
	if stale {
		o.fused++
	}
	if o.eager {
		st.materializeCands()
		return
	}
	if o.prevStale && !stale {
		// The batch between the last pass and this one was patched: it
		// materialised every list from pre-batch neighbor data, patched the
		// members of dirty queries, and this pass rebuilt the movers. (Or a
		// Repartition returned in between, which materialises too.)
		if o.transitions == 0 {
			for v := 0; v < st.g.NumData(); v++ {
				base, cands := naiveProposalState(st, int32(v))
				if st.propBase[v] != base {
					t.Fatalf("%s: vertex %d: base %v after late materialisation, reference %v", o.label, v, st.propBase[v], base)
				}
				if !slices.Equal(st.cands.list(int32(v)), cands) {
					t.Fatalf("%s: vertex %d: candidates %v after late materialisation, reference %v", o.label, v, st.cands.list(int32(v)), cands)
				}
			}
		}
		o.transitions++
	}
	o.prevStale = stale
}

func TestLazyListsMatchEager(t *testing.T) {
	configs := []struct {
		name      string
		nq, nd, e int
		opts      Options
	}{
		{"SHPk", 4000, 12000, 50000, Options{K: 8, Direct: true, Seed: 21}},
		{"SHPkP03", 3000, 9000, 36000, Options{K: 8, Direct: true, Seed: 33, P: 0.3}},
		// A forced sweep stales the lists again mid-run.
		{"SHPkPeriod4", 3000, 9000, 36000, Options{K: 8, Direct: true, Seed: 33, sweepEvery: 4}},
	}
	for _, tc := range configs {
		g := randomBipartite(t, 101, tc.nq, tc.nd, tc.e)
		run := func(eager bool) (*Result, *listOracle) {
			opts := tc.opts.withDefaults()
			st := mustDirectState(t, g, opts, rng.Mix(opts.Seed, 0xD12EC7))
			o := hookLists(t, st, tc.name, eager)
			st.run()
			return &Result{
				Assignment: slices.Clone(st.bucket),
				Iterations: len(st.history),
				History:    st.history,
				Work:       st.work,
			}, o
		}
		lazy, o := run(false)
		eager, _ := run(true)
		comparePar(t, tc.name, eager, lazy)
		if o.fused < 2 || o.transitions == 0 || o.fused == lazy.Iterations {
			t.Fatalf("%s: %d of %d passes fused, %d sweep→patch transitions; the run exercised nothing",
				tc.name, o.fused, lazy.Iterations, o.transitions)
		}
		if tc.opts.sweepEvery > 0 && o.transitions < 2 {
			t.Fatalf("%s: %d sweep→patch transitions; the forced sweeps never re-staled the lists", tc.name, o.transitions)
		}
	}
}

// TestLazyListsSurviveGraphMutation: a Session whose epochs end on sweeps
// (MaxIters cuts them off while a large share still moves) goes into Apply
// with every vertex marked for rebuild, and first needs its lists in a later
// epoch, after hyperedges were added and removed. Every epoch must come out
// exactly as in a session whose lists were forced after every pass.
func TestLazyListsSurviveGraphMutation(t *testing.T) {
	opts := Options{K: 8, Direct: true, Seed: 5, MaxIters: 3}
	run := func(eager bool) []*Result {
		g := randomBipartite(t, 63, 1500, 5000, 21000)
		s, err := NewSession(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Build the engine Repartition would build, so that the hook is in
		// place for its first pass too.
		s.buildEngine(rng.Mix(s.seedBase(), s.epoch+1))
		hookLists(t, s.st, "session", eager)
		var out []*Result
		late := 0
		r := rng.New(7)
		for epoch := 0; epoch < 4; epoch++ {
			if epoch > 0 {
				if err := s.Apply(mutateHyperedges(s, r)); err != nil {
					t.Fatal(err)
				}
			}
			res, err := s.Repartition()
			if err != nil {
				t.Fatal(err)
			}
			if s.st.candsStale {
				t.Fatalf("epoch %d: Repartition returned with the candidate lists unwritten", epoch)
			}
			swept := func(h IterStats) bool {
				mode, _ := s.st.IterPolicy.Next(h.Iter, h.Moved, g.NumData())
				return mode != Patch
			}
			if epoch == 0 && !swept(res.History[len(res.History)-1]) {
				t.Fatal("the cold epoch did not end on a sweep; the test exercises nothing")
			}
			for i := 1; epoch > 0 && i < len(res.History); i++ {
				if swept(res.History[i-1]) && !swept(res.History[i]) {
					late++ // batch i materialised the lists pass i skipped
				}
			}
			out = append(out, res)
		}
		if late == 0 {
			t.Fatal("no epoch after a mutation materialised its lists late; the test exercises nothing")
		}
		return out
	}
	lazy, eager := run(false), run(true)
	for epoch := range lazy {
		comparePar(t, fmt.Sprintf("epoch=%d", epoch), eager[epoch], lazy[epoch])
	}
}

// TestFusedSweepKeepsListRoom: a run that only ever sweeps writes no list, yet
// every list keeps its slot in the slab, so the materialisation that may
// follow allocates nothing.
func TestFusedSweepKeepsListRoom(t *testing.T) {
	g := randomBipartite(t, 5, 3000, 6000, 30000)
	opts := Options{K: 32, Direct: true, Seed: 3, MaxIters: 3}.withDefaults()
	st := mustDirectState(t, g, opts, 3)
	st.run()
	if !st.candsStale {
		t.Fatal("the run reached a patched batch; the test exercises nothing")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st.materializeCands()
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("materialising %d lists after three fused sweeps made %d allocations", g.NumData(), n)
	}
	checkSlots(t, st, "after materialisation")
}

// mutateHyperedges builds a delta that removes 40 live hyperedges and adds 40
// new ones over random members.
func mutateHyperedges(s *Session, r *rng.RNG) *hypergraph.Delta {
	g := s.Graph()
	d := s.NewDelta()
	removed := map[int32]bool{}
	for len(removed) < 40 {
		q := int32(r.Intn(g.NumQueries()))
		if removed[q] || g.QueryDegree(q) == 0 {
			continue
		}
		removed[q] = true
		d.RemoveHyperedge(q)
	}
	for i := 0; i < 40; i++ {
		members := map[int32]bool{}
		for n := 3 + r.Intn(8); len(members) < n; {
			members[int32(r.Intn(g.NumData()))] = true
		}
		ms := make([]int32, 0, len(members))
		for v := range members {
			ms = append(ms, v)
		}
		slices.Sort(ms)
		d.AddHyperedge(ms...)
	}
	return d
}
