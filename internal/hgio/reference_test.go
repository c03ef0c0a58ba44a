package hgio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"

	"shp/internal/gen"
	"shp/internal/hypergraph"
	"shp/internal/rng"
)

// readHMetisRef is ReadHMetis as it was before it wrote CSR directly — a
// string per line, strings.Fields, one Builder.AddEdge per token and
// Builder.Build — kept as the reference the reader is checked against (with
// the format-flag check both now make). Build ends in the FromCSR the reader
// calls, so its independence rests one package down, on hypergraph's
// TestBuildMatchesReference and its global-sort buildRef.
func readHMetisRef(r io.Reader) (*hypergraph.Bipartite, error) {
	nextLine := func(sc *bufio.Scanner) (string, error) {
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

	b := hypergraph.NewBuilder(numQ, numD)
	incidences := 0
	var qWeights []int32
	if edgeWeighted {
		qWeights = make([]int32, 0, min(numQ, 1<<16))
	}
	for q := 0; q < numQ; q++ {
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

// sameAsReference fails unless ReadHMetis's outcome on input — g, err — is
// the reference reader's: the same error text, or graphs equal hyperedge by
// hyperedge and weight by weight.
func sameAsReference(t *testing.T, input string, g *hypergraph.Bipartite, err error) {
	t.Helper()
	ref, refErr := readHMetisRef(strings.NewReader(input))
	if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
		t.Fatalf("input %q: error %v, reference %v", input, err, refErr)
	}
	if err != nil {
		return
	}
	if g.NumQueries() != ref.NumQueries() || g.NumData() != ref.NumData() || g.NumEdges() != ref.NumEdges() ||
		g.Weighted() != ref.Weighted() || g.QueryWeighted() != ref.QueryWeighted() || g.MaxQueryDegree() != ref.MaxQueryDegree() {
		t.Fatalf("input %q: shape differs from the reference's", input)
	}
	for q := int32(0); int(q) < g.NumQueries(); q++ {
		if !slices.Equal(g.QueryNeighbors(q), ref.QueryNeighbors(q)) || g.QueryWeight(q) != ref.QueryWeight(q) {
			t.Fatalf("input %q: hyperedge %d differs from the reference's", input, q+1)
		}
	}
	for d := int32(0); int(d) < g.NumData(); d++ {
		if !slices.Equal(g.DataNeighbors(d), ref.DataNeighbors(d)) || g.DataWeight(d) != ref.DataWeight(d) {
			t.Fatalf("input %q: vertex %d differs from the reference's", input, d+1)
		}
	}
}

// TestReadHMetisMatchesReference drives both readers over generated files in
// all four formats whose hyperedge lines carry what a hand-written file can:
// members out of order and repeated, empty lines, comments between
// hyperedges, ids spelled +7 or 007, separators that are Unicode spaces, and
// the tokens that must fail the same way in both — a ten-digit id, a stray
// word, an id past the vertex count, a file cut short.
func TestReadHMetisMatchesReference(t *testing.T) {
	failed := 0
	seps := []string{" ", "  ", "\t", " ", " ", " \r"}
	for _, format := range []int{0, 1, 10, 11} {
		for seed := uint64(1); seed <= 40; seed++ {
			r := rng.New(seed*16 + uint64(format))
			numQ, numD := 1+r.Intn(12), 1+r.Intn(20)
			var sb strings.Builder
			if format == 0 && r.Bool() {
				fmt.Fprintf(&sb, "%% generated\n\n%d %d\n", numQ, numD)
			} else {
				fmt.Fprintf(&sb, "%d %d %d\n", numQ, numD, format)
			}
			for q := 0; q < numQ; q++ {
				if r.Intn(6) == 0 {
					sb.WriteString("  % a comment between hyperedges\n")
				}
				var toks []string
				if format == 1 || format == 11 {
					toks = append(toks, strconv.Itoa(1+r.Intn(9)))
				}
				for i := r.Intn(7); i > 0; i-- { // 0 members: an empty line
					v := 1 + r.Intn(numD)
					switch r.Intn(12) {
					case 0:
						toks = append(toks, fmt.Sprintf("+%d", v))
					case 1:
						toks = append(toks, fmt.Sprintf("00%d", v))
					case 2:
						toks = append(toks, strconv.Itoa(v), strconv.Itoa(v)) // duplicate
					default:
						toks = append(toks, strconv.Itoa(v))
					}
				}
				if seed%8 == 0 && q == numQ/2 { // poison one line per eighth file
					toks = append(toks, []string{"4294967297", "x7", strconv.Itoa(numD + 1), "-3", "99999999999999999999", "1\xa02"}[r.Intn(6)])
				}
				if r.Bool() {
					sb.WriteString(seps[r.Intn(len(seps))]) // a leading separator
				}
				for i, tok := range toks {
					if i > 0 {
						sb.WriteString(seps[r.Intn(len(seps))])
					}
					sb.WriteString(tok)
				}
				sb.WriteString("\n")
			}
			if format >= 10 {
				for d := 0; d < numD; d++ {
					fmt.Fprintf(&sb, "%d\n", 1+r.Intn(9))
				}
			}
			input := sb.String()
			if seed%10 == 0 {
				input = input[:len(input)*2/3] // cut short
			}
			g, err := ReadHMetis(strings.NewReader(input))
			sameAsReference(t, input, g, err)
			if err != nil {
				failed++
			} else if err := g.Validate(); err != nil {
				t.Fatalf("input %q: %v", input, err)
			}
		}
	}
	if failed < 10 || failed > 60 {
		t.Fatalf("%d of 160 generated files were rejected: the generator no longer covers both outcomes", failed)
	}
}

// coldBytes is the cold-bisect-social workload's input at a tenth of its
// size: gen.SocialEgoNets pruned at degree 2, as hMETIS bytes.
func coldBytes(tb testing.TB) []byte {
	g, err := gen.SocialEgoNets(4000, 20, 100, 0.85, 11)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteHMetis(&buf, hypergraph.PruneTrivialQueries(g, 2)); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadHMetisMatchesReferenceOnColdBytes runs the differential check on
// the benchmark's own kind of file.
func TestReadHMetisMatchesReferenceOnColdBytes(t *testing.T) {
	data := coldBytes(t)
	g, err := ReadHMetis(bytes.NewReader(data))
	sameAsReference(t, string(data), g, err)
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkReadHMetis(b *testing.B) {
	data := coldBytes(b)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadHMetis(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
