package shp_test

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"shp"
	"shp/internal/core"
)

// Integration tests exercising multi-module flows through the public API:
// generate -> serialize -> parse -> partition -> measure -> shard -> replay,
// and cross-implementation agreement between the three partitioning paths.

func TestEndToEndPipelineHMetis(t *testing.T) {
	// Generate a social workload, write it to the hMetis format, read it
	// back, partition, persist the assignment, reload, and verify metrics.
	g, err := shp.GenerateSocialEgoNets(3000, 10, 60, 0.85, 1)
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := shp.WriteHMetis(&file, g); err != nil {
		t.Fatal(err)
	}
	loaded, err := shp.ReadHMetis(&file)
	if err != nil {
		t.Fatal(err)
	}
	loaded = shp.PruneTrivialQueries(loaded, 2)

	const k = 16
	res, err := shp.Partition(loaded, shp.Options{K: k, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var asgFile bytes.Buffer
	if err := shp.WriteAssignment(&asgFile, res.Assignment); err != nil {
		t.Fatal(err)
	}
	reloaded, err := shp.ReadAssignment(&asgFile)
	if err != nil {
		t.Fatal(err)
	}
	f1 := shp.Fanout(loaded, res.Assignment, k)
	f2 := shp.Fanout(loaded, shp.Assignment(reloaded), k)
	if f1 != f2 {
		t.Fatalf("assignment persistence changed fanout: %v vs %v", f1, f2)
	}
	if imb := shp.Imbalance(res.Assignment, k); imb > 0.12 {
		t.Fatalf("pipeline imbalance %v", imb)
	}

	// Shard onto k servers and verify the latency win over random.
	cluster, err := shp.NewCluster(k, res.Assignment, shp.LatencyModel{})
	if err != nil {
		t.Fatal(err)
	}
	randomCluster, err := shp.NewCluster(k, shp.RandomAssignment(loaded.NumData(), k, 3), shp.LatencyModel{})
	if err != nil {
		t.Fatal(err)
	}
	ms := cluster.ReplayQueries(loaded, 4, 1)
	mr := randomCluster.ReplayQueries(loaded, 4, 1)
	if ms.AvgFanout >= mr.AvgFanout {
		t.Fatalf("sharded fanout %v not below random %v", ms.AvgFanout, mr.AvgFanout)
	}
	if ms.AvgLat >= mr.AvgLat {
		t.Fatalf("sharded latency %v not below random %v", ms.AvgLat, mr.AvgLat)
	}
}

// TestThreePartitionersAgreeOnStructure runs SHP-2, SHP-k and the
// distributed implementation on a planted-community graph: all three must
// find structure far below random fanout.
func TestThreePartitionersAgreeOnStructure(t *testing.T) {
	g, err := shp.GeneratePlantedPartition(8, 80, 1500, 6, 0.9, 5)
	if err != nil {
		t.Fatal(err)
	}
	const k = 8
	random := shp.Fanout(g, shp.RandomAssignment(g.NumData(), k, 6), k)
	// 0.7: every implementation must clearly exploit the planted structure
	// (they differ in quality — the paper's Table 2 shows the same spread).
	threshold := random * 0.7

	check := func(name string, a shp.Assignment) {
		t.Helper()
		if err := a.Validate(k); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if f := shp.Fanout(g, a, k); f > threshold {
			t.Fatalf("%s fanout %v above threshold %v (random %v)", name, f, threshold, random)
		}
	}
	r1, err := shp.Partition(g, shp.Options{K: k, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	check("SHP-2", r1.Assignment)
	r2, err := shp.Partition(g, shp.Options{K: k, Direct: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	check("SHP-k", r2.Assignment)
	r3, err := shp.PartitionDistributed(g, shp.DistributedOptions{K: k, Seed: 7, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	check("distributed", r3.Assignment)
}

// TestIncrementalPipeline checks the Section 5 incremental-update flow:
// warm starts move almost nothing, fresh runs move almost everything.
func TestIncrementalPipeline(t *testing.T) {
	g, err := shp.GenerateSocialEgoNets(4000, 10, 80, 0.85, 8)
	if err != nil {
		t.Fatal(err)
	}
	const k = 8
	base, err := shp.Partition(g, shp.Options{K: k, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	churn := func(a, b shp.Assignment) float64 {
		moved := 0
		for i := range a {
			if a[i] != b[i] {
				moved++
			}
		}
		return float64(moved) / float64(len(a))
	}
	warm, err := shp.Partition(g, shp.Options{K: k, Seed: 10, Initial: base.Assignment, MoveCostPenalty: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := shp.Partition(g, shp.Options{K: k, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	warmChurn := churn(base.Assignment, warm.Assignment)
	freshChurn := churn(base.Assignment, fresh.Assignment)
	if warmChurn > 0.10 {
		t.Fatalf("warm-start churn %.1f%% too high", warmChurn*100)
	}
	if freshChurn < 0.5 {
		t.Fatalf("fresh churn %.1f%% suspiciously low; warm-start comparison meaningless", freshChurn*100)
	}
}

// TestWeightedQueriesEndToEnd loads an edge-weighted hMetis file through the
// facade and verifies weighted optimization.
func TestWeightedQueriesEndToEnd(t *testing.T) {
	g, err := shp.GeneratePowerLawBipartite(400, 600, 3000, 2.1, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Attach weights by round-tripping through a weighted builder.
	weights := make([]int32, g.NumQueries())
	for q := range weights {
		weights[q] = int32(1 + q%7)
	}
	b := shp.NewBuilder(g.NumQueries(), g.NumData())
	for q := 0; q < g.NumQueries(); q++ {
		b.AddHyperedge(int32(q), g.QueryNeighbors(int32(q))...)
	}
	wg, err := b.SetQueryWeights(weights).Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := shp.Partition(wg, shp.Options{K: 8, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	f := shp.Fanout(wg, res.Assignment, 8)
	random := shp.Fanout(wg, shp.RandomAssignment(wg.NumData(), 8, 13), 8)
	if f >= random {
		t.Fatalf("weighted fanout %v >= random %v", f, random)
	}
}

// TestMetricsIdentities cross-checks metric identities through the facade.
func TestMetricsIdentities(t *testing.T) {
	g, err := shp.GeneratePowerLawBipartite(300, 400, 2500, 2.1, 14)
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	a := shp.RandomAssignment(g.NumData(), k, 15)
	m := shp.Measure(g, a, k, 0.5)
	// p-fanout <= fanout always; both >= 1 for graphs without empty queries.
	if m.PFanout > m.Fanout+1e-9 {
		t.Fatalf("p-fanout %v exceeds fanout %v", m.PFanout, m.Fanout)
	}
	// p -> 1 limit (Lemma 1).
	if lim := shp.PFanout(g, a, 1-1e-12); math.Abs(lim-m.Fanout) > 1e-6 {
		t.Fatalf("p->1 p-fanout %v != fanout %v", lim, m.Fanout)
	}
	// SOED >= communication volume identity holds through the facade.
	if m.SOED < (m.Fanout-1)*float64(g.NumQueries()) {
		t.Fatalf("SOED %v below communication volume", m.SOED)
	}
}

// TestSessionDeltaEquivalence is the dynamic-graph acceptance check through
// the public API: a graph evolved via Partitioner.Apply must be
// Validate-clean and edge-identical to one rebuilt from scratch, and the
// warm Repartition must stay within 1% of a cold Partition of the mutated
// graph.
func TestSessionDeltaEquivalence(t *testing.T) {
	g, err := shp.GenerateSocialEgoNets(6000, 10, 80, 0.85, 5)
	if err != nil {
		t.Fatal(err)
	}
	g = shp.PruneTrivialQueries(g, 2)
	cold := g.Clone()

	const k = 16
	p, err := shp.NewPartitioner(g, shp.Options{K: k, Direct: true, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	churn, err := shp.NewChurn(g, 0.01, 31)
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip the batches through the trace codec on the way to the cold
	// graph: stream replay and in-process application must agree.
	var traceBuf bytes.Buffer
	for epoch := 0; epoch < 4; epoch++ {
		d, err := churn.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := shp.WriteDeltaTrace(&traceBuf, []*shp.Delta{d}); err != nil {
			t.Fatal(err)
		}
		if err := p.Apply(d); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Repartition(); err != nil {
			t.Fatal(err)
		}
	}
	replayed, err := shp.ReadDeltaTrace(&traceBuf, cold.NumQueries(), cold.NumData())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range replayed {
		if err := cold.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
	}

	// Structural equivalence: session graph == trace-replayed graph ==
	// scratch rebuild, all Validate-clean.
	if err := p.Graph().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := cold.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Graph().NumEdges() != cold.NumEdges() || p.Graph().NumQueries() != cold.NumQueries() ||
		p.Graph().NumData() != cold.NumData() {
		t.Fatal("session graph and trace-replayed graph disagree")
	}
	scratch := shp.NewBuilder(cold.NumQueries(), cold.NumData())
	for q := 0; q < cold.NumQueries(); q++ {
		scratch.AddHyperedge(int32(q), cold.QueryNeighbors(int32(q))...)
	}
	rebuilt, err := scratch.Build()
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.NumEdges() != p.Graph().NumEdges() {
		t.Fatal("scratch rebuild disagrees with delta-built graph")
	}
	for q := 0; q < cold.NumQueries(); q++ {
		a, b := p.Graph().QueryNeighbors(int32(q)), rebuilt.QueryNeighbors(int32(q))
		if len(a) != len(b) {
			t.Fatalf("query %d degree differs from scratch rebuild", q)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %d member %d differs from scratch rebuild", q, i)
			}
		}
	}

	// Quality: warm session within 1% of a cold partition of the same
	// mutated graph.
	coldRes, err := shp.Partition(cold, shp.Options{K: k, Direct: true, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	warmF := shp.Fanout(p.Graph(), p.Assignment(), k)
	coldF := shp.Fanout(cold, coldRes.Assignment, k)
	if warmF > coldF*1.01 {
		t.Fatalf("warm fanout %.4f more than 1%% above cold %.4f", warmF, coldF)
	}
	if imb := shp.Imbalance(p.Assignment(), k); imb > 0.05+1e-9 {
		t.Fatalf("imbalance %.4f exceeds epsilon after churn", imb)
	}
}

// TestGainRangeError: a graph past the integer gain range is refused with
// ErrGainRange by every engine, and a Partitioner refuses the delta that
// would take its graph there, leaving graph and session as they were.
func TestGainRangeError(t *testing.T) {
	// Four hyperedges of four members each, with query weights near
	// MaxInt32: 2^35 weighted incidences of 2^32 units each.
	b := shp.NewBuilder(4, 8)
	weights := make([]int32, 4)
	for q := range int32(4) {
		b.AddHyperedge(q, 2*q%8, (2*q+1)%8, (2*q+2)%8, (2*q+5)%8)
		weights[q] = math.MaxInt32 - q
	}
	heavy, err := b.SetQueryWeights(weights).Build()
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func() error{
		"SHP-2": func() error { _, err := shp.Partition(heavy, shp.Options{K: 2}); return err },
		"SHP-k": func() error { _, err := shp.Partition(heavy, shp.Options{K: 2, Direct: true}); return err },
		"distshp": func() error {
			_, err := shp.PartitionDistributed(heavy, shp.DistributedOptions{K: 2, Workers: 1})
			return err
		},
	} {
		if err := run(); !errors.Is(err, core.ErrGainRange) {
			t.Errorf("%s on query weights near MaxInt32: err %v, want ErrGainRange", name, err)
		}
	}

	// A MoveCostPenalty counts once per data vertex: 10^6 objective units
	// on 600 vertices is past the range, for both engines.
	g, err := shp.GenerateSocialEgoNets(600, 6, 30, 0.8, 3)
	if err != nil {
		t.Fatal(err)
	}
	first, err := shp.Partition(g, shp.Options{K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, direct := range []bool{false, true} {
		_, err := shp.Partition(g, shp.Options{K: 4, Direct: direct, Initial: first.Assignment, MoveCostPenalty: 1e6})
		if !errors.Is(err, shp.ErrGainRange) {
			t.Errorf("Direct %v with MoveCostPenalty 1e6: err %v, want ErrGainRange", direct, err)
		}
	}

	// A session refuses the delta that adds a hyperedge of weight MaxInt32,
	// before and after its warm engine exists, and keeps working.
	for _, warm := range []bool{false, true} {
		p, err := shp.NewPartitioner(g.Clone(), shp.Options{K: 4, Direct: true, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if warm {
			if _, err := p.Repartition(); err != nil {
				t.Fatal(err)
			}
		}
		pg := p.Graph()
		version, queries, edges := pg.Version(), pg.NumQueries(), pg.NumEdges()
		d := p.NewDelta()
		d.AddWeightedHyperedge(math.MaxInt32, 0, 1, 2, 3)
		if err := p.Apply(d); !errors.Is(err, shp.ErrGainRange) {
			t.Fatalf("warm %v: Apply of a MaxInt32-weight hyperedge: err %v, want ErrGainRange", warm, err)
		}
		if pg.Version() != version || pg.NumQueries() != queries || pg.NumEdges() != edges {
			t.Fatalf("warm %v: the refused delta changed the graph", warm)
		}
		res, err := p.Repartition()
		if err != nil {
			t.Fatalf("warm %v: Repartition after the refused delta: %v", warm, err)
		}
		if err := res.Assignment.Validate(4); err != nil {
			t.Fatal(err)
		}
	}
}
