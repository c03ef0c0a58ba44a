package core

// Oracles for the state a warm direct engine carries from iteration to
// iteration and from epoch to epoch instead of recomputing it: the cached
// proposals, the running objective and the running fanout. Each is compared
// with the from-scratch value after every proposal pass, through the
// afterProposals hook, over cold runs and long churned sessions.

import (
	"fmt"
	"testing"

	"shp/internal/hypergraph"
	"shp/internal/partition"
	"shp/internal/rng"
)

// warmOracle is the afterProposals hook of one engine plus what it saw.
type warmOracle struct {
	t     *testing.T
	st    *directState
	label string

	passes     int // proposal passes observed
	flipPasses int // ... whose admissibility vector differed from the pass before
	flipInPass int // ... in which some bucket became admissible
	cachedPass int // ... that kept at least one cached proposal
	runningObj int // ... whose objective was carried by a patched batch, not re-summed
}

func hookOracle(t *testing.T, st *directState, label string) *warmOracle {
	o := &warmOracle{t: t, st: st, label: label}
	st.afterProposals = o.check
	return o
}

// check runs after every computeProposals: every cached proposal must be
// what a fresh selection under the current seed and bucket weights returns,
// and the running sums must equal their recounts exactly. A fused sweep
// selected without writing the lists the fresh selection reads, so they are
// materialised first (TestLazyListsMatchEager covers that this feeds nothing
// back).
func (o *warmOracle) check() {
	st, t := o.st, o.t
	t.Helper()
	st.materializeCands()
	nd := st.g.NumData()
	for v := 0; v < nd; v++ {
		tgt, gain, _ := st.selectProposal(v, st.cands.list(int32(v)))
		if tgt != st.target[v] || gain != st.gains[v] {
			t.Fatalf("%s pass %d: vertex %d caches (target %d, gain %v), a fresh selection gives (%d, %v) [mark %d, tied %v, flipIn %v]",
				o.label, o.passes, v, st.target[v], st.gains[v], tgt, gain, st.active[v], st.tied[v], st.flipIn)
		}
	}
	if want := st.objectiveFromND(); st.objective != want {
		t.Fatalf("%s pass %d: running objective %v, neighbor data sums to %v", o.label, o.passes, st.objective, want)
	}
	if st.frontierValid {
		o.runningObj++
	}
	if got, want := st.fanout(), partition.Fanout(st.g, st.bucket, st.k); got != want {
		t.Fatalf("%s pass %d: running fanout %v, partition.Fanout %v", o.label, o.passes, got, want)
	}
	if o.passes > 0 && !st.g.Weighted() {
		if !st.admissSame {
			o.flipPasses++
		}
		if len(st.flipIn) > 0 {
			o.flipInPass++
		}
		if st.lastFrontier < int64(nd) {
			o.cachedPass++
		}
	}
	o.passes++
}

// oracleGraphs are the unit-weight and the query-weighted instance the
// oracles run on: small hyperedges, so exact gain ties are common.
func oracleGraphs(t *testing.T) map[string]*hypergraph.Bipartite {
	return map[string]*hypergraph.Bipartite{
		"unit":     randomBipartite(t, 51, 700, 1200, 4200),
		"weighted": weightedBipartite(t, 52, 700, 1200, 4200),
	}
}

// TestColdRunCachesMatchFreshSelection runs the oracle over cold SHP-k
// refinements, patched and with a sweep forced every fourth batch.
func TestColdRunCachesMatchFreshSelection(t *testing.T) {
	for name, g := range oracleGraphs(t) {
		for _, period := range []int{0, 4} {
			opts := Options{K: 8, Direct: true, Epsilon: 0.02, sweepEvery: period, MaxIters: 25}.withDefaults()
			st := mustDirectState(t, g, opts, 77)
			o := hookOracle(t, st, fmt.Sprintf("%s/period%d", name, period))
			st.run()
			if o.passes < 5 || o.cachedPass == 0 {
				t.Fatalf("%s: %d passes, %d kept a cache; the run exercised nothing", o.label, o.passes, o.cachedPass)
			}
		}
	}
}

// oracleChurn builds one epoch's delta by hand, so that it can hold every
// structural case the running sums and the cache invalidation have code for:
// new vertices, live hyperedges removed and re-added with perturbed
// membership (some reaching the new vertices), a hyperedge added and removed
// in one window, a weighted hyperedge, and every sixth epoch a hyperedge
// larger than any before, which grows the gain tables.
func oracleChurn(s *Session, epoch int, r *rng.RNG) *hypergraph.Delta {
	g := s.Graph()
	nq, nd := g.NumQueries(), g.NumData()
	d := s.NewDelta()
	fresh := []int32{d.AddData(1), d.AddData(1), d.AddData(1)}
	pick := func(n int) []int32 {
		ms := make([]int32, n)
		for i := range ms {
			ms[i] = int32(r.Intn(nd))
		}
		return ms
	}
	for i := 0; i < nq/40; i++ {
		q := int32(r.Intn(nq))
		members := g.QueryNeighbors(q)
		if len(members) == 0 {
			continue // removed in an earlier epoch
		}
		ms := append([]int32(nil), members...)
		ms[r.Intn(len(ms))] = int32(r.Intn(nd))
		if r.Intn(4) == 0 {
			ms = append(ms, fresh[r.Intn(len(fresh))])
		}
		d.RemoveHyperedge(q)
		d.AddHyperedge(ms...)
	}
	d.RemoveHyperedge(d.AddHyperedge(pick(6)...))
	d.AddWeightedHyperedge(int32(2+epoch%3), pick(5)...)
	if epoch%6 == 2 {
		d.AddHyperedge(pick(g.MaxQueryDegree() + 40)...)
	}
	return d
}

// TestWarmSessionCachesMatchFreshSelection is the stale-cache oracle for the
// serving path: 24 churned epochs under a binding migration budget, the
// oracle after every proposal pass. The run must contain what the
// invalidation rules exist for — admissibility flips in both directions,
// passes that kept caches across them, and epochs that started with tied
// vertices — or it proves nothing.
func TestWarmSessionCachesMatchFreshSelection(t *testing.T) {
	const epochs = 24
	for name, g := range oracleGraphs(t) {
		label := name
		const budget = 40
		s, err := NewSession(g.Clone(), Options{K: 8, Direct: true, Seed: 5, Epsilon: 0.02, MaxIters: 12, MigrationBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Repartition(); err != nil { // builds the warm engine
			t.Fatal(err)
		}
		o := hookOracle(t, s.st, label)
		r := rng.New(23)
		tiedEpochs, boundEpochs, grew := 0, 0, 0
		for epoch := 0; epoch < epochs; epoch++ {
			if err := s.Apply(oracleChurn(s, epoch, r)); err != nil {
				t.Fatal(err)
			}
			for _, tied := range s.st.tied {
				if tied {
					tiedEpochs++
					break
				}
			}
			tableLen := len(s.st.tables.T)
			res, err := s.Repartition()
			if err != nil {
				t.Fatal(err)
			}
			if len(s.st.tables.T) > tableLen {
				grew++
			}
			if res.Migrated == budget {
				boundEpochs++
			}
			// The epoch's last batch has no proposal pass after it.
			if got, want := s.st.objective, s.st.objectiveFromND(); got != want {
				t.Fatalf("%s epoch %d: running objective %v, neighbor data sums to %v", label, epoch, got, want)
			}
			want := partition.Fanout(s.Graph(), res.Assignment, 8)
			if got := s.Fanout(); got != want {
				t.Fatalf("%s epoch %d: session fanout %v, partition.Fanout %v", label, epoch, got, want)
			}
			obj := s.st.tables.objective(float64(s.st.objective))
			if last := res.History[len(res.History)-1]; last.Fanout != want || last.Objective != obj {
				t.Fatalf("%s epoch %d: history ends on fanout %v objective %v, want %v and %v",
					label, epoch, last.Fanout, last.Objective, want, obj)
			}
		}
		if o.flipPasses == 0 || o.flipInPass == 0 || o.flipInPass == o.flipPasses {
			t.Fatalf("%s: %d flip passes, %d with a newly admissible bucket — need both directions", label, o.flipPasses, o.flipInPass)
		}
		if o.cachedPass == 0 || o.runningObj == 0 {
			t.Fatalf("%s: %d passes kept a cache, %d carried a running objective", label, o.cachedPass, o.runningObj)
		}
		if tiedEpochs < epochs/2 || boundEpochs == 0 || grew == 0 {
			t.Fatalf("%s: %d epochs began with tied vertices, %d hit the budget, %d grew the gain tables", label, tiedEpochs, boundEpochs, grew)
		}
		t.Logf("%s: %d passes, %d flips (%d flip-in), %d kept caches; %d tied epochs, %d budget-bound",
			label, o.passes, o.flipPasses, o.flipInPass, o.cachedPass, tiedEpochs, boundEpochs)
	}
}

// TestRunningSumsSurviveBalanceRepair drives the one structural path the
// churn above never takes: a weight change that pushes a bucket over its cap,
// so the sync's repairOverCap moves vertices and must carry the running
// objective and fanout with every move. (The graph is data-weighted from the
// first delta on, so every pass is a full selection sweep: this test is
// about the sums.)
func TestRunningSumsSurviveBalanceRepair(t *testing.T) {
	for name, g := range oracleGraphs(t) {
		s, err := NewSession(g.Clone(), Options{K: 8, Direct: true, Seed: 6, Epsilon: 0.02, MaxIters: 8})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Repartition(); err != nil {
			t.Fatal(err)
		}
		o := hookOracle(t, s.st, name)
		repaired := 0
		for epoch := 0; epoch < 4; epoch++ {
			before := s.Assignment()
			d := s.NewDelta()
			for v := int32(0); v < 60; v++ {
				if before[v] == int32(epoch) {
					d.SetDataWeight(v, 5) // bucket `epoch` now sits far over its cap
				}
			}
			d.RemoveHyperedge(int32(epoch))
			if err := s.Apply(d); err != nil {
				t.Fatal(err)
			}
			// The first proposal pass of the epoch sees the state the sync
			// left; a mover there can only be a repair move.
			seen := false
			s.st.afterProposals = func() {
				if !seen {
					seen = true
					for v := range before {
						if s.st.bucket[v] != before[v] {
							repaired++
							break
						}
					}
				}
				o.check()
			}
			if _, err := s.Repartition(); err != nil {
				t.Fatal(err)
			}
		}
		if repaired == 0 {
			t.Fatalf("%s: no epoch's sync repaired the balance; the test drove nothing", name)
		}
	}
}

// TestRunningObjectiveExactAtLargeWeights: with query weights so large that
// the objective is past 2^53 units, where a float64 sum of grid values
// would round (differently patched and recomputed), the running integer
// objective still equals the neighbor data's re-sum after every pass, and
// histories agree with full recomputation bit for bit.
func TestRunningObjectiveExactAtLargeWeights(t *testing.T) {
	r := rng.New(61)
	numQ, numD := 300, 500
	b := hypergraph.NewBuilder(numQ, numD)
	for i := 0; i < 2500; i++ {
		b.AddEdge(int32(r.Intn(numQ)), int32(r.Intn(numD)))
	}
	qw := make([]int32, numQ)
	for i := range qw {
		qw[i] = int32(200001 + 2*r.Intn(5000)) // odd: no spare trailing zero bits
	}
	g, err := b.SetQueryWeights(qw).Build()
	if err != nil {
		t.Fatal(err)
	}
	// P = 0.3 fills all 32 grid bits of the table values (at the default 0.5
	// they are 1 − 2^-c, and sums of those stay exact far longer).
	opts := Options{K: 6, Direct: true, P: 0.3, Seed: 8, MaxIters: 12}
	st := mustDirectState(t, g, opts.withDefaults(), 9)
	o := hookOracle(t, st, "weights ~2^17.6")
	st.run()
	if st.objective < 1<<53 || o.runningObj == 0 {
		t.Fatalf("objective %d units, %d passes carried it: the test needs a running objective past 2^53", st.objective, o.runningObj)
	}
	if got, want := st.history[len(st.history)-1].Objective, st.tables.objective(float64(st.objectiveFromND())); got != want {
		t.Fatalf("last history objective %v, neighbor data sums to %v", got, want)
	}
	runBoth(t, g, opts)
}
