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
	"strconv"
	"strings"

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
// actually read, not the header's counts: the line buffer and the weight
// slices start small and grow, so a short input declaring 2^31−1 weighted
// vertices fails on its first missing line instead of reserving gigabytes.
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
	edgeWeighted := format == 1 || format == 11
	vertexWeighted := format == 10 || format == 11

	b := hypergraph.NewBuilder(numQ, numD)
	incidences := 0
	var qWeights []int32
	if edgeWeighted {
		qWeights = make([]int32, 0, min(numQ, 1<<16))
	}
	for q := 0; q < numQ; q++ {
		// Empty lines are valid here: they encode empty hyperedges, so only
		// comment lines are skipped (unlike the header).
		line, err := nextLine(sc)
		if err != nil {
			return nil, fmt.Errorf("hgio: hyperedge %d: %w", q+1, err)
		}
		fs := strings.Fields(line)
		start := 0
		if edgeWeighted {
			if len(fs) == 0 {
				return nil, fmt.Errorf("hgio: hyperedge %d: missing weight", q+1)
			}
			w, err := parseInt32(fs[0], 1)
			if err != nil {
				return nil, fmt.Errorf("hgio: hyperedge %d: bad weight %q", q+1, fs[0])
			}
			qWeights = append(qWeights, w)
			start = 1
		}
		for _, f := range fs[start:] {
			v, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("hgio: hyperedge %d: bad vertex %q", q+1, f)
			}
			if v < 1 || v > numD {
				return nil, fmt.Errorf("hgio: hyperedge %d: vertex %d out of range [1,%d]", q+1, v, numD)
			}
			b.AddEdge(int32(q), int32(v-1))
		}
		incidences += len(fs) - start
	}
	// numQ needs no check: the loop above read a line per hyperedge.
	if err := checkCount("vertex", numD, incidences); err != nil {
		return nil, err
	}
	if edgeWeighted {
		b.SetQueryWeights(qWeights)
	}
	if vertexWeighted {
		weights := make([]int32, 0, min(numD, 1<<16))
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
		b.SetDataWeights(weights)
	}
	return b.Build()
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

// nextLine returns the next non-comment line, preserving empty lines.
func nextLine(sc *bufio.Scanner) (string, error) {
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "%") {
			continue
		}
		return line, nil
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.ErrUnexpectedEOF
}
