// Package hgio reads and writes hypergraphs and partition assignments.
//
// Two on-disk formats are supported:
//
//   - The hMetis/PaToH ".hgr" format used by the partitioners the paper
//     compares against: a header line "numHyperedges numVertices [fmt]"
//     followed by one line per hyperedge listing 1-indexed vertex ids.
//     fmt 10 appends one vertex-weight line per vertex after the hyperedges.
//   - A plain bipartite edge list ("q d" per line, 0-indexed) with an
//     optional "%% q=<n> d=<m>" header; without the header, sizes are
//     inferred from the maximum ids.
//
// Assignments are stored one bucket id per line, data vertex order.
package hgio

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"shp/internal/hypergraph"
)

// parseInt32 parses a decimal integer that must lie in [lo, math.MaxInt32].
// Every count, id and weight of these formats is stored in an int32, so a
// larger value is an error rather than a silent wrap-around.
func parseInt32(s string, lo int) (int32, error) {
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	if v < lo || v > math.MaxInt32 {
		return 0, fmt.Errorf("%d out of range [%d, %d]", v, lo, math.MaxInt32)
	}
	return int32(v), nil
}

// ErrImplausibleCount is returned by ReadHMetis and ReadEdgeList for a
// declared (or, in a header-less edge list, inferred) vertex or query count
// the input's bytes cannot back: the graph's offset arrays are sized from
// the count, so a 13-byte file naming vertex 2^31−1 would otherwise
// allocate gigabytes.
type ErrImplausibleCount struct {
	What       string // "vertex" or "query"
	Count      int
	Incidences int // (query, vertex) pairs actually read
}

func (e ErrImplausibleCount) Error() string {
	return fmt.Sprintf("hgio: implausible %s count %d for %d incidences read", e.What, e.Count, e.Incidences)
}

// checkCount rejects a count that is both above a floor every sparse-but-sane
// file stays under (isolated vertices, one edge with a large id) and more
// than 8× the incidences read.
func checkCount(what string, count, incidences int) error {
	const floor = 1 << 22
	if count > floor && count > 8*incidences {
		return ErrImplausibleCount{What: what, Count: count, Incidences: incidences}
	}
	return nil
}

// ReadHMetis parses the hMetis hypergraph format. Memory follows the bytes
// actually read, not the header's counts: the line buffer, the forward CSR
// the hyperedge lines are written into and the weight slices start small
// and grow, so a short input declaring 2^31−1 weighted vertices fails on its
// first missing line instead of reserving gigabytes.
func ReadHMetis(r io.Reader) (*hypergraph.Bipartite, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 64*1024*1024)
	line, err := nextContentLine(sc)
	if err != nil {
		return nil, fmt.Errorf("hgio: missing header: %w", err)
	}
	fields := strings.Fields(line)
	if len(fields) < 2 || len(fields) > 3 {
		return nil, fmt.Errorf("hgio: malformed header %q", line)
	}
	numQ32, err := parseInt32(fields[0], 0)
	if err != nil {
		return nil, fmt.Errorf("hgio: bad hyperedge count: %w", err)
	}
	numD32, err := parseInt32(fields[1], 0)
	if err != nil {
		return nil, fmt.Errorf("hgio: bad vertex count: %w", err)
	}
	numQ, numD := int(numQ32), int(numD32)
	format := 0
	if len(fields) == 3 {
		format, err = strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("hgio: bad format flag: %w", err)
		}
	}
	if format != 0 && format != 1 && format != 10 && format != 11 {
		return nil, fmt.Errorf("hgio: unsupported format flag %d (want 0, 1, 10 or 11)", format)
	}
	edgeWeighted := format == 1 || format == 11
	vertexWeighted := format == 10 || format == 11

	// The forward CSR is written as the lines are read: one offset per
	// hyperedge, one id per token, both growing with the bytes consumed.
	qOff := make([]int64, 1, min(numQ+1, 1<<12))
	var qAdj, qWeights, weights []int32
	if edgeWeighted {
		qWeights = make([]int32, 0, min(numQ, 1<<16))
	}
	for q := 0; q < numQ; q++ {
		f, rest, err := nextHyperedgeLine(sc)
		if err != nil {
			return nil, fmt.Errorf("hgio: hyperedge %d: %w", q+1, err)
		}
		if edgeWeighted {
			if len(f) == 0 {
				return nil, fmt.Errorf("hgio: hyperedge %d: missing weight", q+1)
			}
			w, err := atoi(f)
			if err != nil || w < 1 || w > math.MaxInt32 {
				return nil, fmt.Errorf("hgio: hyperedge %d: bad weight %q", q+1, f)
			}
			qWeights = append(qWeights, int32(w))
			f, rest = nextField(rest)
		}
		for ; len(f) > 0; f, rest = nextField(rest) {
			v, err := atoi(f)
			if err != nil {
				return nil, fmt.Errorf("hgio: hyperedge %d: bad vertex %q", q+1, f)
			}
			if v < 1 || v > numD {
				return nil, fmt.Errorf("hgio: hyperedge %d: vertex %d out of range [1,%d]", q+1, v, numD)
			}
			if len(qAdj) == cap(qAdj) {
				qAdj = slices.Grow(qAdj, max(len(qAdj), 1024)) // double: append's 1.25× copies a large file five times over
			}
			qAdj = append(qAdj, int32(v-1))
		}
		qOff = append(qOff, int64(len(qAdj)))
	}
	// numQ needs no check: the loop above read a line per hyperedge.
	if err := checkCount("vertex", numD, len(qAdj)); err != nil {
		return nil, err
	}
	if vertexWeighted {
		weights = make([]int32, 0, min(numD, 1<<16))
		for d := 0; d < numD; d++ {
			line, err := nextContentLine(sc)
			if err != nil {
				return nil, fmt.Errorf("hgio: vertex weight %d: %w", d+1, err)
			}
			w, err := parseInt32(line, 1)
			if err != nil {
				return nil, fmt.Errorf("hgio: vertex weight %d: %w", d+1, err)
			}
			weights = append(weights, w)
		}
	}
	return hypergraph.FromCSR(numD, qOff, qAdj, weights, qWeights)
}

// nextHyperedgeLine returns the next line that is not a comment, split into
// its first field and the rest, both valid until the next read. Empty lines
// are returned: they encode empty hyperedges (unlike before the header,
// where nextContentLine skips them).
func nextHyperedgeLine(sc *bufio.Scanner) (field, rest []byte, err error) {
	for sc.Scan() {
		field, rest = nextField(sc.Bytes())
		if len(field) > 0 && field[0] == '%' {
			continue
		}
		return field, rest, nil
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return nil, nil, io.ErrUnexpectedEOF
}

// asciiSpace marks the ASCII bytes that are white space to unicode.IsSpace.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// nextField returns the first white-space-separated field of line and what
// follows it; the field is empty when only white space is left. It splits
// where strings.Fields does — Unicode white space separates, an invalid
// UTF-8 byte does not — without copying the line.
func nextField(line []byte) (field, rest []byte) {
	i := 0
	for i < len(line) {
		if c := line[i]; c < utf8.RuneSelf {
			if !asciiSpace[c] {
				break
			}
			i++
		} else if r, n := utf8.DecodeRune(line[i:]); unicode.IsSpace(r) {
			i += n
		} else {
			break
		}
	}
	j := i
	for j < len(line) {
		if c := line[j]; c < utf8.RuneSelf {
			if asciiSpace[c] {
				break
			}
			j++
		} else if r, n := utf8.DecodeRune(line[j:]); unicode.IsSpace(r) {
			break
		} else {
			j += n
		}
	}
	return line[i:j], line[j:]
}

// atoi is strconv.Atoi on a field. Up to nine plain digits are folded in
// place; a sign, a tenth digit or any other byte takes strconv's path, so
// every value and every failure is strconv's.
func atoi(f []byte) (int, error) {
	if len(f) > 9 {
		return strconv.Atoi(string(f))
	}
	v := 0
	for _, c := range f {
		if c < '0' || c > '9' {
			return strconv.Atoi(string(f))
		}
		v = v*10 + int(c-'0')
	}
	return v, nil
}

// WriteHMetis writes g in the hMetis format (fmt 1 with hyperedge weights,
// 10 with vertex weights, 11 with both).
func WriteHMetis(w io.Writer, g *hypergraph.Bipartite) error {
	bw := bufio.NewWriter(w)
	format := ""
	switch {
	case g.Weighted() && g.QueryWeighted():
		format = " 11"
	case g.Weighted():
		format = " 10"
	case g.QueryWeighted():
		format = " 1"
	}
	if _, err := fmt.Fprintf(bw, "%d %d%s\n", g.NumQueries(), g.NumData(), format); err != nil {
		return err
	}
	for q := 0; q < g.NumQueries(); q++ {
		if g.QueryWeighted() {
			if _, err := fmt.Fprintf(bw, "%d ", g.QueryWeight(int32(q))); err != nil {
				return err
			}
		}
		ns := g.QueryNeighbors(int32(q))
		for i, d := range ns {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.Itoa(int(d) + 1)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	if g.Weighted() {
		for d := 0; d < g.NumData(); d++ {
			if _, err := fmt.Fprintln(bw, g.DataWeight(int32(d))); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses the bipartite edge-list format.
func ReadEdgeList(r io.Reader) (*hypergraph.Bipartite, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 64*1024*1024)
	var edges []hypergraph.Edge
	numQ, numD := -1, -1
	maxQ, maxD := int32(-1), int32(-1)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "%%") {
			for _, f := range strings.Fields(line[2:]) {
				if v, ok := strings.CutPrefix(f, "q="); ok {
					n, err := parseInt32(v, 0)
					if err != nil {
						return nil, fmt.Errorf("hgio: line %d: bad q=: %w", lineNo, err)
					}
					numQ = int(n)
				}
				if v, ok := strings.CutPrefix(f, "d="); ok {
					n, err := parseInt32(v, 0)
					if err != nil {
						return nil, fmt.Errorf("hgio: line %d: bad d=: %w", lineNo, err)
					}
					numD = int(n)
				}
			}
			continue
		}
		fs := strings.Fields(line)
		if len(fs) != 2 {
			return nil, fmt.Errorf("hgio: line %d: want 'q d', got %q", lineNo, line)
		}
		q, err := parseInt32(fs[0], 0)
		if err != nil {
			return nil, fmt.Errorf("hgio: line %d: %w", lineNo, err)
		}
		d, err := parseInt32(fs[1], 0)
		if err != nil {
			return nil, fmt.Errorf("hgio: line %d: %w", lineNo, err)
		}
		edges = append(edges, hypergraph.Edge{Q: q, D: d})
		maxQ = max(maxQ, q)
		maxD = max(maxD, d)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if numQ < 0 {
		numQ = int(maxQ) + 1
	}
	if numD < 0 {
		numD = int(maxD) + 1
	}
	if err := checkCount("query", numQ, len(edges)); err != nil {
		return nil, err
	}
	if err := checkCount("vertex", numD, len(edges)); err != nil {
		return nil, err
	}
	return hypergraph.FromEdges(numQ, numD, edges)
}

// WriteEdgeList writes g in the bipartite edge-list format with a size header.
func WriteEdgeList(w io.Writer, g *hypergraph.Bipartite) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%% q=%d d=%d\n", g.NumQueries(), g.NumData()); err != nil {
		return err
	}
	for q := 0; q < g.NumQueries(); q++ {
		for _, d := range g.QueryNeighbors(int32(q)) {
			if _, err := fmt.Fprintf(bw, "%d %d\n", q, d); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteAssignment writes one bucket id per data vertex per line.
func WriteAssignment(w io.Writer, assignment []int32) error {
	bw := bufio.NewWriter(w)
	for _, b := range assignment {
		if _, err := fmt.Fprintln(bw, b); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadAssignment reads an assignment written by WriteAssignment.
func ReadAssignment(r io.Reader) ([]int32, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 64*1024*1024)
	var out []int32
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := parseInt32(line, math.MinInt32)
		if err != nil {
			return nil, fmt.Errorf("hgio: line %d: %w", lineNo, err)
		}
		out = append(out, v)
	}
	return out, sc.Err()
}

func nextContentLine(sc *bufio.Scanner) (string, error) {
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		return line, nil
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.ErrUnexpectedEOF
}
