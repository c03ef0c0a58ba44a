package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestPercentileBasics(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestPercentileInterpolation(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 50); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Percentile(50) = %v, want 5", got)
	}
}

func TestPercentileEmpty(t *testing.T) {
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Fatal("Percentile of empty input should be NaN")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestPercentilesMatchSingle(t *testing.T) {
	xs := []float64{9, 1, 7, 3, 5}
	got := Percentiles(xs, 10, 50, 90)
	for i, q := range []float64{10, 50, 90} {
		if want := Percentile(xs, q); got[i] != want {
			t.Fatalf("Percentiles[%d] = %v, want %v", i, got[i], want)
		}
	}
}

func TestPercentileMonotoneInQ(t *testing.T) {
	if err := quick.Check(func(raw []float64, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		qa, qb := float64(a%101), float64(b%101)
		if qa > qb {
			qa, qb = qb, qa
		}
		return Percentile(xs, qa) <= Percentile(xs, qb)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); math.Abs(m-5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5", m)
	}
	if s := StdDev(xs); math.Abs(s-2) > 1e-12 {
		t.Fatalf("StdDev = %v, want 2", s)
	}
}

func TestSummaryMatchesBatch(t *testing.T) {
	if err := quick.Check(func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e9 {
				xs = append(xs, v)
			}
		}
		var s Summary
		for _, x := range xs {
			s.Add(x)
		}
		if len(xs) == 0 {
			return s.N == 0 && math.IsNaN(s.Mean())
		}
		sorted := make([]float64, len(xs))
		copy(sorted, xs)
		sort.Float64s(sorted)
		if s.Min() != sorted[0] || s.Max() != sorted[len(sorted)-1] {
			return false
		}
		return math.Abs(s.Mean()-Mean(xs)) < 1e-6*(1+math.Abs(Mean(xs)))
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryMerge(t *testing.T) {
	var a, b, all Summary
	for i := 0; i < 10; i++ {
		a.Add(float64(i))
		all.Add(float64(i))
	}
	for i := 10; i < 25; i++ {
		b.Add(float64(i))
		all.Add(float64(i))
	}
	a.Merge(b)
	if a.N != all.N || a.Mean() != all.Mean() || a.Min() != all.Min() || a.Max() != all.Max() {
		t.Fatalf("merged summary differs: %+v vs %+v", a, all)
	}
}

func TestSummaryMergeIntoEmpty(t *testing.T) {
	var a, b Summary
	b.Add(3)
	b.Add(5)
	a.Merge(b)
	if a.N != 2 || a.Mean() != 4 {
		t.Fatalf("merge into empty failed: %+v", a)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "k", "fanout")
	tb.AddRow("enron", 8, 1.73)
	tb.AddRow("pokec", 512, 7.5)
	out := tb.String()
	if !strings.Contains(out, "enron") || !strings.Contains(out, "1.73") {
		t.Fatalf("table missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table should have 4 lines, got %d:\n%s", len(lines), out)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		3:      "3",
		3.14:   "3.14",
		314.2:  "314.2",
		0.5:    "0.5000",
		0.0001: "0.0001",
	}
	for v, want := range cases {
		if got := FormatFloat(v); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", v, got, want)
		}
	}
	if FormatFloat(math.NaN()) != "-" {
		t.Error("NaN should render as -")
	}
}
