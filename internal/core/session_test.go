package core

import (
	"reflect"
	"testing"

	"shp/internal/gen"
	"shp/internal/hypergraph"
	"shp/internal/partition"
	"shp/internal/rng"
)

// The session contract: Apply + Repartition must behave like one long
// refinement over a changing graph — the incremental engine stays exact
// across epochs (byte-identical to the full-rebuild reference), new vertices
// get placed, balance holds, and the graph stays Validate-clean.

// repartitionRebuilt is the sessions' independent reference: Repartition
// with the warm engine's maintained state thrown away after the delta sync —
// neighbor data rebuilt from the graph, every vertex re-evaluated. On a
// period-1 session (sweepEvery 1) that leaves no spliced or patched
// state anywhere in the epoch.
func repartitionRebuilt(s *Session) (*Result, error) {
	if s.st != nil {
		// The seed Repartition is about to install: the sync's balance
		// repair draws its vertex order from it.
		s.st.seed = rng.Mix(s.seedBase(), s.epoch+1)
		s.syncEngine()
		s.st.buildNeighborData()
		s.st.markAllActive()
	}
	return s.Repartition()
}

// sessionPair builds two sessions over clones of the same graph — the
// patched default and the period-1 reference (drive the second with
// repartitionRebuilt) — plus matching churn generators.
func sessionPair(t *testing.T, opts Options, churn float64) (*Session, *Session, *gen.Churn, *gen.Churn) {
	t.Helper()
	g1 := randomBipartite(t, 91, 900, 3000, 13000)
	g2 := g1.Clone()
	full := opts
	full.sweepEvery = 1
	s1, err := NewSession(g1, opts)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSession(g2, full)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1.Assignment(), s2.Assignment()) {
		t.Fatal("initial partitions diverge between engines")
	}
	c1, err := gen.NewChurn(g1, churn, 17)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := gen.NewChurn(g2, churn, 17)
	if err != nil {
		t.Fatal(err)
	}
	return s1, s2, c1, c2
}

func runSessionEpochs(t *testing.T, s1, s2 *Session, c1, c2 *gen.Churn, epochs int) {
	t.Helper()
	for epoch := 0; epoch < epochs; epoch++ {
		d1, err := c1.Next()
		if err != nil {
			t.Fatal(err)
		}
		d2, err := c2.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := s1.Apply(d1); err != nil {
			t.Fatal(err)
		}
		if err := s2.Apply(d2); err != nil {
			t.Fatal(err)
		}
		r1, err := s1.Repartition()
		if err != nil {
			t.Fatal(err)
		}
		r2, err := repartitionRebuilt(s2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r1.Assignment, r2.Assignment) {
			diff := 0
			for i := range r1.Assignment {
				if r1.Assignment[i] != r2.Assignment[i] {
					diff++
				}
			}
			t.Fatalf("epoch %d: incremental and full assignments differ at %d/%d vertices",
				epoch, diff, len(r1.Assignment))
		}
		if !reflect.DeepEqual(r1.History, r2.History) {
			t.Fatalf("epoch %d: histories diverge:\nincremental %+v\nfull        %+v",
				epoch, r1.History, r2.History)
		}
		if err := s1.Graph().Validate(); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		if err := r1.Assignment.Validate(s1.opts.K); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
	}
}

func TestSessionIncrementalMatchesFullDirect(t *testing.T) {
	s1, s2, c1, c2 := sessionPair(t, Options{K: 8, Direct: true, Seed: 3}, 0.02)
	runSessionEpochs(t, s1, s2, c1, c2, 5)
}

func TestSessionIncrementalMatchesFullRecursiveStart(t *testing.T) {
	// Initial partition via recursive SHP-2, warm epochs via the direct
	// engine: the session handoff must be identical under both engines.
	s1, s2, c1, c2 := sessionPair(t, Options{K: 8, Seed: 11}, 0.03)
	runSessionEpochs(t, s1, s2, c1, c2, 4)
}

func TestSessionIncrementalMatchesFullWithPenalty(t *testing.T) {
	s1, s2, c1, c2 := sessionPair(t, Options{K: 8, Direct: true, Seed: 5, MoveCostPenalty: 0.05}, 0.02)
	runSessionEpochs(t, s1, s2, c1, c2, 4)
}

func TestSessionWeightAndDataDeltas(t *testing.T) {
	// Hand-built deltas exercising every op kind, including weight changes
	// (which flip the graph to weighted mid-session) and vertices that join
	// and immediately appear in new hyperedges.
	g1 := randomBipartite(t, 33, 400, 1500, 6000)
	g2 := g1.Clone()
	opts := Options{K: 6, Direct: true, Seed: 9}
	full := opts
	full.sweepEvery = 1
	s1, err := NewSession(g1, opts)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSession(g2, full)
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 3; epoch++ {
		build := func(s *Session) *hypergraph.Delta {
			d := s.NewDelta()
			v := d.AddData(2)
			w := d.AddData(1)
			d.AddHyperedge(v, w, int32(epoch*7), int32(epoch*11+3))
			d.AddHyperedge(v, int32(epoch*5+1))
			d.RemoveHyperedge(int32(epoch * 13))
			d.SetDataWeight(int32(epoch*17+2), int32(2+epoch))
			return d
		}
		if err := s1.Apply(build(s1)); err != nil {
			t.Fatal(err)
		}
		if err := s2.Apply(build(s2)); err != nil {
			t.Fatal(err)
		}
		r1, err := s1.Repartition()
		if err != nil {
			t.Fatal(err)
		}
		r2, err := repartitionRebuilt(s2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r1.Assignment, r2.Assignment) || !reflect.DeepEqual(r1.History, r2.History) {
			t.Fatalf("epoch %d: engines diverged on mixed deltas", epoch)
		}
		if err := s1.Graph().Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSessionPlacesNewVertices(t *testing.T) {
	g := randomBipartite(t, 41, 300, 1200, 5000)
	s, err := NewSession(g, Options{K: 4, Direct: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := s.NewDelta()
	fresh := make([]int32, 0, 10)
	for i := 0; i < 10; i++ {
		fresh = append(fresh, d.AddData(1))
	}
	for i, v := range fresh {
		d.AddHyperedge(v, int32(i*3), int32(i*3+1))
	}
	if err := s.Apply(d); err != nil {
		t.Fatal(err)
	}
	// Until Repartition the new vertices are unassigned.
	a := s.Assignment()
	for _, v := range fresh {
		if a[v] != partition.Unassigned {
			t.Fatalf("vertex %d assigned before Repartition", v)
		}
	}
	res, err := s.Repartition()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Assignment.Validate(4); err != nil {
		t.Fatal(err)
	}
	// Balance must hold after placement + refinement.
	if imb := partition.Imbalance(res.Assignment, 4); imb > 0.05+1e-9 {
		t.Fatalf("imbalance %v exceeds epsilon after growth", imb)
	}
}

func TestSessionRepartitionQualityNearCold(t *testing.T) {
	// After churn, a warm Repartition must land within 1% of a cold
	// partition of the mutated graph (the acceptance bar). Run on a
	// community-structured ego-net graph — the paper's workload shape —
	// where both converge to stable quality (unstructured random graphs
	// make cold runs themselves vary by several percent between epochs,
	// which says nothing about the warm path).
	g0, err := gen.SocialEgoNets(8000, 12, 80, 0.85, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := hypergraph.PruneTrivialQueries(g0, 2)
	cold := g.Clone()
	const k = 16
	s, err := NewSession(g, Options{K: k, Direct: true, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	churn, err := gen.NewChurn(g, 0.01, 23)
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 3; epoch++ {
		d, err := churn.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := cold.ApplyDelta(cloneDelta(d)); err != nil {
			t.Fatal(err)
		}
		if err := s.Apply(d); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Repartition(); err != nil {
			t.Fatal(err)
		}
		coldRes, err := Partition(cold, Options{K: k, Direct: true, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		warmF := partition.Fanout(s.Graph(), s.Assignment(), k)
		coldF := partition.Fanout(cold, coldRes.Assignment, k)
		if warmF > coldF*1.01 {
			t.Fatalf("epoch %d: warm fanout %.4f more than 1%% above cold %.4f", epoch, warmF, coldF)
		}
	}
}

// cloneDelta deep-copies a delta so it can be applied to a second graph.
func cloneDelta(d *hypergraph.Delta) *hypergraph.Delta {
	cp := hypergraph.NewDelta(d.BaseQueries, d.BaseData)
	for _, op := range d.Ops {
		switch op.Kind {
		case hypergraph.OpAddHyperedge:
			cp.AddWeightedHyperedge(op.Weight, op.Members...)
		case hypergraph.OpRemoveHyperedge:
			cp.RemoveHyperedge(op.Q)
		case hypergraph.OpAddData:
			cp.AddData(op.Weight)
		case hypergraph.OpSetDataWeight:
			cp.SetDataWeight(op.D, op.Weight)
		}
	}
	return cp
}

func TestSessionApplyRejectsBadDeltaAtomically(t *testing.T) {
	g := randomBipartite(t, 61, 100, 400, 1500)
	s, err := NewSession(g, Options{K: 4, Direct: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := s.Assignment()
	for name, build := range map[string]func(*hypergraph.Delta){
		"negative-remove":  func(d *hypergraph.Delta) { d.RemoveHyperedge(-1) },
		"oob-remove":       func(d *hypergraph.Delta) { d.RemoveHyperedge(10000) },
		"oob-member":       func(d *hypergraph.Delta) { d.AddHyperedge(0, 99999) },
		"oob-weight":       func(d *hypergraph.Delta) { d.SetDataWeight(-3, 2) },
		"nonpositive-data": func(d *hypergraph.Delta) { d.AddData(0) },
	} {
		d := s.NewDelta()
		build(d)
		if err := s.Apply(d); err == nil {
			t.Fatalf("%s: Apply accepted an invalid delta", name)
		}
	}
	// Nothing leaked: the graph and session state are untouched and a valid
	// delta still applies and repartitions cleanly.
	if err := s.Graph().Validate(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, s.Assignment()) {
		t.Fatal("failed Apply changed the assignment")
	}
	d := s.NewDelta()
	d.AddHyperedge(1, 2, 3)
	if err := s.Apply(d); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Repartition(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionRepartitionWithoutChanges(t *testing.T) {
	// Repartition with no Apply in between is a no-op refinement from a
	// converged state: quick, and it must not corrupt anything.
	g := randomBipartite(t, 55, 300, 1100, 4500)
	s, err := NewSession(g, Options{K: 4, Direct: true, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	first := s.Assignment()
	for i := 0; i < 2; i++ {
		res, err := s.Repartition()
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Assignment.Validate(4); err != nil {
			t.Fatal(err)
		}
	}
	// A converged assignment should stay essentially put (a handful of
	// probabilistic zero-gain swaps are fine; wholesale movement is not).
	moved := 0
	after := s.Assignment()
	for i := range first {
		if first[i] != after[i] {
			moved++
		}
	}
	if moved > len(first)/10 {
		t.Fatalf("idle repartition moved %d/%d vertices", moved, len(first))
	}
}
