package hgio

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"shp/internal/hypergraph"
	"shp/internal/rng"
)

func TestReadHMetisBasic(t *testing.T) {
	in := "% a comment\n3 6\n1 2 6\n1 2 3 4\n4 5 6\n"
	g, err := ReadHMetis(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumQueries() != 3 || g.NumData() != 6 || g.NumEdges() != 10 {
		t.Fatalf("shape Q=%d D=%d E=%d", g.NumQueries(), g.NumData(), g.NumEdges())
	}
	if !reflect.DeepEqual(g.QueryNeighbors(0), []int32{0, 1, 5}) {
		t.Fatalf("query 0 = %v", g.QueryNeighbors(0))
	}
}

func TestReadHMetisVertexWeights(t *testing.T) {
	in := "2 3 10\n1 2\n2 3\n5\n6\n7\n"
	g, err := ReadHMetis(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Weighted() || g.DataWeight(0) != 5 || g.DataWeight(2) != 7 {
		t.Fatal("vertex weights not parsed")
	}
}

func TestReadHMetisEdgeWeights(t *testing.T) {
	in := "2 3 1\n9 1 2\n4 2 3\n"
	g, err := ReadHMetis(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 4 {
		t.Fatalf("edge-weighted parse wrong: %d edges", g.NumEdges())
	}
	if !reflect.DeepEqual(g.QueryNeighbors(0), []int32{0, 1}) {
		t.Fatalf("query 0 = %v", g.QueryNeighbors(0))
	}
	if !g.QueryWeighted() || g.QueryWeight(0) != 9 || g.QueryWeight(1) != 4 {
		t.Fatalf("hyperedge weights not parsed: %d %d", g.QueryWeight(0), g.QueryWeight(1))
	}
}

func TestHMetisQueryWeightedRoundTrip(t *testing.T) {
	g, err := hypergraph.NewBuilder(2, 3).
		AddHyperedge(0, 0, 1).AddHyperedge(1, 1, 2).
		SetQueryWeights([]int32{7, 3}).Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteHMetis(&buf, g); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "2 3 1\n") {
		t.Fatalf("header should declare fmt 1: %q", buf.String())
	}
	g2, err := ReadHMetis(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.QueryWeight(0) != 7 || g2.QueryWeight(1) != 3 {
		t.Fatal("query weight round trip failed")
	}
	if !reflect.DeepEqual(g.Edges(), g2.Edges()) {
		t.Fatal("edges changed in round trip")
	}
}

func TestHMetisBothWeightsRoundTrip(t *testing.T) {
	g, err := hypergraph.NewBuilder(1, 2).
		AddHyperedge(0, 0, 1).
		SetQueryWeights([]int32{5}).
		SetDataWeights([]int32{2, 3}).Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteHMetis(&buf, g); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "1 2 11\n") {
		t.Fatalf("header should declare fmt 11: %q", buf.String())
	}
	g2, err := ReadHMetis(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.QueryWeight(0) != 5 || g2.DataWeight(0) != 2 || g2.DataWeight(1) != 3 {
		t.Fatal("fmt 11 round trip failed")
	}
}

func TestReadHMetisErrors(t *testing.T) {
	cases := []string{
		"",                             // no header
		"1\n",                          // short header
		"1 2\n",                        // missing hyperedge line
		"1 2\n1 5\n",                   // vertex out of range
		"1 2\nx\n",                     // non-numeric vertex
		"1 2 10\n1\n1\nx\n",            // bad weight
		"-1 5 1\n",                     // negative hyperedge count
		"1 -5\n\n",                     // negative vertex count
		"4294967297 1\n",               // hyperedge count above int32
		"1 4294967297\n1\n",            // vertex count above int32
		"1 2 1\n4294967297 1 2\n",      // hyperedge weight would wrap to 1
		"1 2 1\n0 1 2\n",               // hyperedge weight below 1
		"1 2 10\n1 2\n4294967297\n1\n", // vertex weight would wrap to 1
		"1 2 10\n1 2\n0\n1\n",          // vertex weight below 1
		"2147483647 2147483647 11\n",   // 8 GB of declared weights, none present
		"2 3 7\n1 2\n2 3\n",            // format flag that is none of 0, 1, 10, 11
	}
	for _, in := range cases {
		// Rejecting a few bytes must cost little: nothing may be sized by a
		// header count before the lines it promises have been read.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadHMetis(strings.NewReader(in))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("input %q: expected error", in)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("input %q: allocated %d bytes before failing", in, got)
		}
	}
}

func TestHMetisRoundTrip(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		b := hypergraph.NewBuilder(10, 15)
		for i := 0; i < 50; i++ {
			b.AddEdge(int32(r.Intn(10)), int32(r.Intn(15)))
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := WriteHMetis(&buf, g); err != nil {
			return false
		}
		g2, err := ReadHMetis(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(g.Edges(), g2.Edges())
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestHMetisWeightedRoundTrip(t *testing.T) {
	g, err := hypergraph.NewBuilder(2, 3).
		AddHyperedge(0, 0, 1).AddHyperedge(1, 1, 2).
		SetDataWeights([]int32{2, 4, 8}).Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteHMetis(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadHMetis(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for d := int32(0); d < 3; d++ {
		if g.DataWeight(d) != g2.DataWeight(d) {
			t.Fatalf("weight mismatch at %d", d)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g, err := hypergraph.FromHyperedges(6, [][]int32{{0, 1, 5}, {0, 1, 2, 3}, {3, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Edges(), g2.Edges()) || g2.NumQueries() != 3 || g2.NumData() != 6 {
		t.Fatal("edge list round trip mismatch")
	}
}

func TestEdgeListInferredSizes(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 0\n2 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumQueries() != 3 || g.NumData() != 5 {
		t.Fatalf("inferred Q=%d D=%d", g.NumQueries(), g.NumData())
	}
}

func TestEdgeListHeaderOverridesSizes(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("%% q=10 d=20\n0 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumQueries() != 10 || g.NumData() != 20 {
		t.Fatalf("header sizes Q=%d D=%d", g.NumQueries(), g.NumData())
	}
}

func TestEdgeListComments(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("# comment\n\n0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatal("comments not skipped")
	}
}

func TestEdgeListErrors(t *testing.T) {
	for _, in := range []string{
		"0\n", "a b\n", "-1 0\n", "%% q=x\n0 0\n",
		"4294967296 0\n",         // query id would alias query 0
		"0 4294967296\n",         // data id would alias vertex 0
		"%% q=-1\n0 0\n",         // negative header count
		"%% d=4294967297\n0 0\n", // header count above int32
	} {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

// TestImplausibleCounts pins the guard between the parsers and
// Builder.Build, which sizes its offset arrays from the counts: a few bytes
// naming 2^31−1 vertices fail with the typed error before anything is
// sized, and sparse-but-sane files still load.
func TestImplausibleCounts(t *testing.T) {
	readers := map[string]func(string) (*hypergraph.Bipartite, error){
		"hmetis":   func(in string) (*hypergraph.Bipartite, error) { return ReadHMetis(strings.NewReader(in)) },
		"edgelist": func(in string) (*hypergraph.Bipartite, error) { return ReadEdgeList(strings.NewReader(in)) },
	}
	rejected := []struct {
		format, in, what string
		count            int
	}{
		{"hmetis", "0 2147483647\n", "vertex", 2147483647},
		{"edgelist", "0 2147483647", "vertex", 2147483648},
		{"edgelist", "2147483647 0", "query", 2147483648},
		{"edgelist", "%% q=1 d=2147483647\n0 0\n", "vertex", 2147483647},
	}
	for _, c := range rejected {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := readers[c.format](c.in)
		runtime.ReadMemStats(&after)
		var ic ErrImplausibleCount
		if !errors.As(err, &ic) || ic.What != c.what || ic.Count != c.count {
			t.Errorf("%s %q: got %v, want ErrImplausibleCount{%s %d}", c.format, c.in, err, c.what, c.count)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s %q: allocated %d bytes before failing", c.format, c.in, got)
		}
	}
	accepted := []struct {
		format, in string
		numD       int
	}{
		{"hmetis", "1 1000000\n1000000\n", 1000000}, // one edge, id 10^6
		{"edgelist", "0 999999\n", 1000000},
		{"hmetis", "0 1000\n", 1000}, // 1000 isolated vertices
		{"edgelist", "%% q=0 d=1000\n", 1000},
	}
	for _, c := range accepted {
		g, err := readers[c.format](c.in)
		if err != nil {
			t.Errorf("%s %q: %v", c.format, c.in, err)
			continue
		}
		if g.NumData() != c.numD {
			t.Errorf("%s %q: |D| = %d, want %d", c.format, c.in, g.NumData(), c.numD)
		}
	}
}

func TestAssignmentRoundTrip(t *testing.T) {
	a := []int32{0, 3, 1, 2, 2, 0}
	var buf bytes.Buffer
	if err := WriteAssignment(&buf, a); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAssignment(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, got) {
		t.Fatalf("round trip: %v -> %v", a, got)
	}
}

func TestAssignmentRejectsOverflow(t *testing.T) {
	if got, err := ReadAssignment(strings.NewReader("4294967297\n")); err == nil {
		t.Fatalf("bucket id above int32 loaded as %v", got)
	}
}

func TestAssignmentSkipsComments(t *testing.T) {
	got, err := ReadAssignment(strings.NewReader("# header\n1\n\n2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int32{1, 2}) {
		t.Fatalf("got %v", got)
	}
}
