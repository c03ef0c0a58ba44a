// Package stats provides the small statistical toolkit the experiment
// harness needs: percentiles, online moments, histograms with exponential
// bins, and fixed-width table rendering for reproducing the paper's tables.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Percentile returns the q-th percentile (q in [0,100]) of xs using linear
// interpolation between closest ranks. It sorts a copy; xs is not modified.
// Returns NaN for empty input.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	return percentileSorted(cp, q)
}

// Percentiles returns several percentiles in one sort.
func Percentiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	for i, q := range qs {
		out[i] = percentileSorted(cp, q)
	}
	return out
}

func percentileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := float64(q / 100 * float64(len(sorted)-1))
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// Mean returns the arithmetic mean, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation, or NaN for empty input.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += float64(d * d)
	}
	return math.Sqrt(sum / float64(len(xs)))
}

// Summary holds online-computed moments and extrema.
type Summary struct {
	N        int64
	Sum      float64
	SumSq    float64
	MinV     float64
	MaxV     float64
	hasValue bool
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.N++
	s.Sum += x
	s.SumSq += float64(x * x)
	if !s.hasValue || x < s.MinV {
		s.MinV = x
	}
	if !s.hasValue || x > s.MaxV {
		s.MaxV = x
	}
	s.hasValue = true
}

// Merge folds another summary into this one.
func (s *Summary) Merge(o Summary) {
	if o.N == 0 {
		return
	}
	if !s.hasValue {
		*s = o
		return
	}
	s.N += o.N
	s.Sum += o.Sum
	s.SumSq += o.SumSq
	if o.MinV < s.MinV {
		s.MinV = o.MinV
	}
	if o.MaxV > s.MaxV {
		s.MaxV = o.MaxV
	}
}

// Mean returns the mean of recorded observations (NaN if none).
func (s *Summary) Mean() float64 {
	if s.N == 0 {
		return math.NaN()
	}
	return s.Sum / float64(s.N)
}

// Variance returns the population variance (NaN if none).
func (s *Summary) Variance() float64 {
	if s.N == 0 {
		return math.NaN()
	}
	m := s.Mean()
	v := s.SumSq/float64(s.N) - float64(m*m)
	if v < 0 {
		v = 0 // guard against floating point cancellation
	}
	return v
}

// Min returns the minimum observation (NaN if none).
func (s *Summary) Min() float64 {
	if s.N == 0 {
		return math.NaN()
	}
	return s.MinV
}

// Max returns the maximum observation (NaN if none).
func (s *Summary) Max() float64 {
	if s.N == 0 {
		return math.NaN()
	}
	return s.MaxV
}

// Table renders rows of columns in fixed-width ASCII, the format the
// experiment harness uses to echo the paper's tables.
type Table struct {
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{Header: header}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// FormatFloat renders a float compactly: integers without decimals, small
// values with enough precision to be meaningful.
func FormatFloat(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	av := math.Abs(v)
	switch {
	case v == math.Trunc(v) && av < 1e15:
		return fmt.Sprintf("%.0f", v)
	case av >= 100:
		return fmt.Sprintf("%.1f", v)
	case av >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for pad := len(c); pad < widths[i]; pad++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
