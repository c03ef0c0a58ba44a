package shp_test

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"testing"

	"shp"
)

// figure1 is the paper's running example.
func figure1(t testing.TB) *shp.Hypergraph {
	t.Helper()
	g, err := shp.FromHyperedges(6, [][]int32{{0, 1, 5}, {0, 1, 2, 3}, {3, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestQuickstartFlow(t *testing.T) {
	g := figure1(t)
	res, err := shp.Partition(g, shp.Options{K: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Assignment.Validate(2); err != nil {
		t.Fatal(err)
	}
	f := shp.Fanout(g, res.Assignment, 2)
	if f < 1 || f > 3 {
		t.Fatalf("fanout %v out of range", f)
	}
	// The paper's example partition {1,2,3}/{4,5,6} achieves 5/3; SHP
	// should do at least as well.
	if f > 5.0/3.0+1e-9 {
		t.Fatalf("fanout %v worse than the paper's hand partition 5/3", f)
	}
}

func TestDirectModeFacade(t *testing.T) {
	g, err := shp.GeneratePlantedPartition(4, 50, 300, 5, 0.9, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := shp.Partition(g, shp.Options{K: 4, Direct: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if shp.Fanout(g, res.Assignment, 4) >= shp.Fanout(g, shp.RandomAssignment(g.NumData(), 4, 3), 4) {
		t.Fatal("direct mode did not improve over random")
	}
}

func TestDistributedFacade(t *testing.T) {
	g, err := shp.GeneratePlantedPartition(4, 60, 300, 5, 0.9, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := shp.PartitionDistributed(g, shp.DistributedOptions{K: 4, Seed: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TotalMessages == 0 {
		t.Fatal("distributed run reported no messages")
	}
	if err := res.Assignment.Validate(4); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsFacade(t *testing.T) {
	g := figure1(t)
	a := shp.Assignment{0, 0, 0, 1, 1, 1}
	if f := shp.Fanout(g, a, 2); math.Abs(f-5.0/3.0) > 1e-12 {
		t.Fatalf("Fanout = %v", f)
	}
	if pf := shp.PFanout(g, a, 0.5); pf <= 0 || pf > shp.Fanout(g, a, 2) {
		t.Fatalf("PFanout = %v", pf)
	}
	if c := shp.CliqueNetCut(g, a); c <= 0 {
		t.Fatalf("CliqueNetCut = %v", c)
	}
	if s := shp.SOED(g, a, 2); s != 4 {
		t.Fatalf("SOED = %v, want 4 (two cut queries with fanout 2)", s)
	}
	m := shp.Measure(g, a, 2, 0.5)
	if m.Fanout != shp.Fanout(g, a, 2) || m.Imbalance != 0 {
		t.Fatalf("Measure = %+v", m)
	}
}

func TestIOFacadeRoundTrip(t *testing.T) {
	g := figure1(t)
	var buf bytes.Buffer
	if err := shp.WriteHMetis(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := shp.ReadHMetis(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("hmetis round trip lost edges")
	}
	buf.Reset()
	if err := shp.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	if _, err := shp.ReadEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	a := shp.Assignment{0, 1, 0, 1, 0, 1}
	if err := shp.WriteAssignment(&buf, a); err != nil {
		t.Fatal(err)
	}
	got, err := shp.ReadAssignment(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if got[i] != a[i] {
			t.Fatal("assignment round trip mismatch")
		}
	}
}

func TestMultiDimFacade(t *testing.T) {
	g, err := shp.GeneratePowerLawBipartite(200, 300, 1500, 2.1, 8)
	if err != nil {
		t.Fatal(err)
	}
	loads := make([]float64, g.NumData())
	for i := range loads {
		loads[i] = 1
	}
	res, err := shp.PartitionMultiDim(g, shp.MultiDimOptions{K: 3, Loads: [][]float64{loads}})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Assignment.Validate(3); err != nil {
		t.Fatal(err)
	}
}

func TestShardingFacade(t *testing.T) {
	g, err := shp.GenerateSocialEgoNets(500, 8, 50, 0.85, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := shp.Partition(g, shp.Options{K: 8, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	c, err := shp.NewCluster(8, res.Assignment, shp.LatencyModel{})
	if err != nil {
		t.Fatal(err)
	}
	m := c.ReplayQueries(g, 11, 1)
	if m.AvgFanout <= 0 || m.AvgLat <= 0 {
		t.Fatalf("measurement empty: %+v", m)
	}
	rows := shp.LatencyVsFanout(shp.LatencyModel{}, 5, 500, 12)
	if len(rows) != 5 {
		t.Fatal("LatencyVsFanout row count wrong")
	}
}

func TestObjectiveConstantsExposed(t *testing.T) {
	g := figure1(t)
	for _, obj := range []shp.Objective{shp.ObjPFanout, shp.ObjFanout, shp.ObjCliqueNet} {
		if _, err := shp.Partition(g, shp.Options{K: 2, Objective: obj, Seed: 1}); err != nil {
			t.Fatalf("objective %v: %v", obj, err)
		}
	}
}

func TestPruneFacade(t *testing.T) {
	g, err := shp.FromHyperedges(3, [][]int32{{0}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	p := shp.PruneTrivialQueries(g, 2)
	if p.NumQueries() != 1 {
		t.Fatalf("prune kept %d queries", p.NumQueries())
	}
}

// TestOptionsSurface is the ratchet on configuration: the exported fields of
// the two option structs are pinned by name, so an option cannot appear (or
// vanish) without this list changing in the same diff.
func TestOptionsSurface(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeOf(shp.Options{}), []string{
			"K", "Epsilon", "P", "Objective", "Direct", "MaxIters", "MinMoveFraction",
			"Parallelism", "Seed", "Initial", "MoveCostPenalty", "MigrationBudget",
		}},
		{reflect.TypeOf(shp.DistributedOptions{}), []string{
			"K", "Epsilon", "P", "ItersPerLevel", "MinMoveFraction", "Workers", "Seed", "Transport",
			"Checkpointer", "CheckpointEvery", "DisableCheckpointing",
		}},
	} {
		var got []string
		for i := 0; i < c.typ.NumField(); i++ {
			if f := c.typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%v exports %v, want %v: a new option needs two non-test callers that need different values", c.typ, got, c.want)
		}
	}
}
