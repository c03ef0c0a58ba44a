package hgio

import (
	"bytes"
	"strings"
	"testing"
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
