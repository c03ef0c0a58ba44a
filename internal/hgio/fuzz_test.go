package hgio

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"shp/internal/hypergraph"
)

// FuzzReadHMetis checks the parser never panics and that anything it
// accepts round-trips through WriteHMetis.
func FuzzReadHMetis(f *testing.F) {
	f.Add("3 6\n1 2 6\n1 2 3 4\n4 5 6\n")
	f.Add("2 3 1\n9 1 2\n4 2 3\n")
	f.Add("2 3 10\n1 2\n2 3\n5\n6\n7\n")
	f.Add("1 2 11\n5 1 2\n2\n3\n")
	f.Add("% comment\n1 1\n1\n")
	f.Add("")
	f.Add("0 0\n")
	f.Add("1 1\n\n")
	f.Add("-1 5 1\n")
	f.Add("1 2 1\n4294967297 1 2\n")
	f.Add("1 2 10\n1 2\n4294967297\n1\n")
	f.Add("2147483647 2147483647 11\n")
	f.Add("0 2147483647\n")
	f.Add("2 3 7\n1 2\n2 3\n")
	f.Add("1 9\n+7 007 3\n")
	f.Add("1 9\n1 4294967297 2\n")
	f.Add("1 9\n1\u00a02\u20033\n")
	f.Add("1 9\n1\xa02 \xff\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadHMetis(strings.NewReader(input))
		sameAsReference(t, input, g, err)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteHMetis(&buf, g); err != nil {
			t.Fatalf("cannot re-serialize accepted graph: %v", err)
		}
		g2, err := ReadHMetis(&buf)
		if err != nil {
			t.Fatalf("cannot re-parse own output: %v\noutput:\n%s", err, buf.String())
		}
		if g2.NumQueries() != g.NumQueries() || g2.NumData() != g.NumData() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed shape: (%d,%d,%d) -> (%d,%d,%d)",
				g.NumQueries(), g.NumData(), g.NumEdges(),
				g2.NumQueries(), g2.NumData(), g2.NumEdges())
		}
	})
}

// FuzzReadEdgeList checks the edge-list parser never panics and accepted
// inputs round-trip.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 0\n1 2\n")
	f.Add("%% q=10 d=20\n0 0\n")
	f.Add("# comment\n\n0 1\n")
	f.Add("")
	f.Add("4294967296 0\n")
	f.Add("%% q=-1 d=4294967297\n0 0\n")
	f.Add("0 2147483647")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadEdgeList(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("cannot re-parse own output: %v", err)
		}
		if g2.NumEdges() != g.NumEdges() {
			t.Fatal("round trip changed edge count")
		}
	})
}

// FuzzReadAssignment checks the assignment parser never panics.
func FuzzReadAssignment(f *testing.F) {
	f.Add("1\n2\n3\n")
	f.Add("# c\n\n-1\n")
	f.Fuzz(func(t *testing.T, input string) {
		_, _ = ReadAssignment(strings.NewReader(input))
	})
}

// FuzzReadDeltaTrace checks the trace reader never panics and that every
// trace it accepts round-trips: written back with WriteDeltaTrace and read
// again, it gives the same batches. An added hyperedge of weight 0 has
// weight 1 (hypergraph.DeltaOp), which is what the writer spells out.
func FuzzReadDeltaTrace(f *testing.F) {
	f.Add("addd 2\naddq 1 20 0 3\nrmq 1\ncommit\nsetw 20 5\naddq 3 1 2 20\ncommit\n", 4, 20)
	f.Add("# comment\n\n  addq 0 1 2  \n", 3, 3)
	f.Add("commit\ncommit\naddd 1\n", 0, 0)
	f.Add("addq 1\n", 1, 1)
	f.Add("rmq +7\naddq 007 -1 2147483647\nsetw 1 -3\n", 9, 9)
	f.Add("addq 4294967297 1\n", 1, 1)
	f.Add("commit now\n", 0, 0)
	f.Add("frob 1\n", 0, 0)
	f.Add("addd\t5\r\ncommit\r\n", 2, 2)
	f.Fuzz(func(t *testing.T, input string, baseQ, baseD int) {
		deltas, err := ReadDeltaTrace(strings.NewReader(input), baseQ, baseD)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteDeltaTrace(&buf, deltas); err != nil {
			t.Fatalf("cannot write an accepted trace: %v", err)
		}
		again, err := ReadDeltaTrace(bytes.NewReader(buf.Bytes()), baseQ, baseD)
		if err != nil {
			t.Fatalf("cannot re-read own output: %v\noutput:\n%s", err, buf.String())
		}
		for _, d := range deltas {
			for i, op := range d.Ops {
				if op.Kind == hypergraph.OpAddHyperedge && op.Weight == 0 {
					d.Ops[i].Weight = 1
				}
			}
		}
		if !reflect.DeepEqual(deltas, again) {
			t.Fatalf("round trip changed the trace:\n%s", buf.String())
		}
	})
}
