// Package partition defines partition assignments and the hypergraph
// objectives from the paper: fanout, probabilistic fanout (p-fanout),
// the clique-net weighted edge-cut (Lemma 2), the sum of external degrees
// (SOED), and balance/imbalance measures.
package partition

import (
	"errors"
	"fmt"
	"math"

	"shp/internal/hypergraph"
	"shp/internal/rng"
)

// Assignment maps each data vertex to a bucket in [0, k). The value
// Unassigned marks vertices outside the partition (used only transiently).
type Assignment []int32

// Unassigned marks a data vertex with no bucket.
const Unassigned int32 = -1

// Random assigns each of n vertices to a uniform random bucket in [0, k).
// For large graphs this gives an essentially perfectly balanced start,
// which is how Algorithm 1 initializes.
func Random(n, k int, seed uint64) Assignment {
	a := make(Assignment, n)
	for i := range a {
		a[i] = int32(rng.Mix(seed, uint64(i)) % uint64(k))
	}
	return a
}

// Clone returns a copy of the assignment.
func (a Assignment) Clone() Assignment {
	cp := make(Assignment, len(a))
	copy(cp, a)
	return cp
}

// Validate checks that every vertex is assigned a bucket in [0, k).
func (a Assignment) Validate(k int) error {
	if k < 1 {
		return errors.New("partition: k must be >= 1")
	}
	for i, b := range a {
		if b < 0 || int(b) >= k {
			return fmt.Errorf("partition: vertex %d has bucket %d outside [0,%d)", i, b, k)
		}
	}
	return nil
}

// BucketSizes returns the number of data vertices per bucket.
func BucketSizes(a Assignment, k int) []int64 {
	sizes := make([]int64, k)
	for _, b := range a {
		if b >= 0 {
			sizes[b]++
		}
	}
	return sizes
}

// BucketWeights returns the total data-vertex weight per bucket.
func BucketWeights(g *hypergraph.Bipartite, a Assignment, k int) []int64 {
	weights := make([]int64, k)
	for d, b := range a {
		if b >= 0 {
			weights[b] += int64(g.DataWeight(int32(d)))
		}
	}
	return weights
}

// Imbalance returns max_i size_i / (n/k) - 1: the paper's ε such that
// |V_i| <= (1+ε) n/k holds with equality for the largest bucket.
// Returns 0 for an empty assignment.
func Imbalance(a Assignment, k int) float64 {
	n := 0
	for _, b := range a {
		if b >= 0 {
			n++
		}
	}
	if n == 0 {
		return 0
	}
	sizes := BucketSizes(a, k)
	var maxSize int64
	for _, s := range sizes {
		if s > maxSize {
			maxSize = s
		}
	}
	ideal := float64(n) / float64(k)
	return float64(maxSize)/ideal - 1
}

// WeightedImbalance is Imbalance over vertex weights.
func WeightedImbalance(g *hypergraph.Bipartite, a Assignment, k int) float64 {
	weights := BucketWeights(g, a, k)
	var total, maxW int64
	for _, w := range weights {
		total += w
		if w > maxW {
			maxW = w
		}
	}
	if total == 0 {
		return 0
	}
	ideal := float64(total) / float64(k)
	return float64(maxW)/ideal - 1
}

// QueryFanout returns the number of distinct buckets containing a data
// vertex of hyperedge q. Unassigned neighbors are ignored.
func QueryFanout(g *hypergraph.Bipartite, a Assignment, k int, q int32) int {
	// Hyperedges are small on average; a bitmap over k would cost O(k) to
	// reset. Use a small sort-free distinct count over the neighbor buckets.
	ns := g.QueryNeighbors(q)
	switch len(ns) {
	case 0:
		return 0
	case 1:
		if a[ns[0]] >= 0 {
			return 1
		}
		return 0
	}
	var seenBuf [64]int32
	seen := seenBuf[:0]
	for _, d := range ns {
		b := a[d]
		if b < 0 {
			continue
		}
		found := false
		for _, s := range seen {
			if s == b {
				found = true
				break
			}
		}
		if !found {
			seen = append(seen, b)
			if len(seen) == k { // cannot grow further
				return k
			}
		}
	}
	return len(seen)
}

// Fanout returns the average query fanout over all hyperedges:
// fanout(P) = (1/|Q|) Σ_q fanout(P, q). This is the paper's headline metric
// (communication volume / (k-1)-cut, up to constants). When the graph
// carries query weights, the average is weighted.
func Fanout(g *hypergraph.Bipartite, a Assignment, k int) float64 {
	nq := g.NumQueries()
	if nq == 0 {
		return 0
	}
	var total int64
	for q := int32(0); int(q) < nq; q++ {
		total += int64(g.QueryWeight(q)) * int64(QueryFanout(g, a, k, q))
	}
	return float64(total) / float64(g.TotalQueryWeight())
}

// PFanoutQuery returns the probabilistic fanout of hyperedge q:
// Σ_i (1 - (1-p)^{n_i(q)}), counting only assigned neighbors.
func PFanoutQuery(g *hypergraph.Bipartite, a Assignment, p float64, q int32) float64 {
	ns := g.QueryNeighbors(q)
	var bucketBuf [64]int32
	var countBuf [64]int32
	buckets := bucketBuf[:0]
	counts := countBuf[:0]
	for _, d := range ns {
		b := a[d]
		if b < 0 {
			continue
		}
		found := false
		for i, s := range buckets {
			if s == b {
				counts[i]++
				found = true
				break
			}
		}
		if !found {
			buckets = append(buckets, b)
			counts = append(counts, 1)
		}
	}
	total := 0.0
	for _, c := range counts {
		total += 1 - math.Pow(1-p, float64(c))
	}
	return total
}

// PFanout returns the average probabilistic fanout, the optimization
// objective from Section 3.1:
//
//	(1/|Q|) Σ_q Σ_i (1 - (1-p)^{n_i(q)})
func PFanout(g *hypergraph.Bipartite, a Assignment, p float64) float64 {
	nq := g.NumQueries()
	if nq == 0 {
		return 0
	}
	total := 0.0
	for q := int32(0); int(q) < nq; q++ {
		total += float64(float64(g.QueryWeight(q)) * PFanoutQuery(g, a, p, q))
	}
	return total / float64(g.TotalQueryWeight())
}

// CliqueNetCut returns the weighted edge-cut of the clique-net graph
// (Lemma 2) without materializing it: edge weight w(u,v) is the number of
// common queries, and the cut equals
//
//	Σ_q ( C(n(q), 2) - Σ_i C(n_i(q), 2) )
//
// where n(q) counts assigned neighbors of q and n_i(q) those in bucket i.
func CliqueNetCut(g *hypergraph.Bipartite, a Assignment) float64 {
	total := 0.0
	var bucketBuf [64]int32
	var countBuf [64]int64
	for q := int32(0); int(q) < g.NumQueries(); q++ {
		buckets := bucketBuf[:0]
		counts := countBuf[:0]
		var n int64
		for _, d := range g.QueryNeighbors(q) {
			b := a[d]
			if b < 0 {
				continue
			}
			n++
			found := false
			for i, s := range buckets {
				if s == b {
					counts[i]++
					found = true
					break
				}
			}
			if !found {
				buckets = append(buckets, b)
				counts = append(counts, 1)
			}
		}
		cross := n * (n - 1) / 2
		for _, c := range counts {
			cross -= c * (c - 1) / 2
		}
		total += float64(cross)
	}
	return total
}

// SOED returns the sum of external degrees: Σ over hyperedges with
// fanout > 1 of their fanout. Per the paper's footnote, SOED equals the
// communication volume plus the hyperedge cut.
func SOED(g *hypergraph.Bipartite, a Assignment, k int) float64 {
	var total int64
	for q := int32(0); int(q) < g.NumQueries(); q++ {
		if f := QueryFanout(g, a, k, q); f > 1 {
			total += int64(f)
		}
	}
	return float64(total)
}

// HyperedgeCut returns the number of hyperedges spanning more than one
// bucket.
func HyperedgeCut(g *hypergraph.Bipartite, a Assignment, k int) int64 {
	var cut int64
	for q := int32(0); int(q) < g.NumQueries(); q++ {
		if QueryFanout(g, a, k, q) > 1 {
			cut++
		}
	}
	return cut
}

// FanoutHistogram returns counts of queries by fanout value (index f holds
// the number of queries with fanout exactly f; index 0 counts empty queries).
func FanoutHistogram(g *hypergraph.Bipartite, a Assignment, k int) []int64 {
	hist := make([]int64, k+1)
	for q := 0; q < g.NumQueries(); q++ {
		hist[QueryFanout(g, a, k, int32(q))]++
	}
	return hist
}

// Metrics bundles every objective for reporting.
type Metrics struct {
	K            int
	Fanout       float64
	PFanout      float64
	P            float64
	CliqueNetCut float64
	SOED         float64
	HyperedgeCut int64
	Imbalance    float64
}

// Measure computes all metrics in one call.
func Measure(g *hypergraph.Bipartite, a Assignment, k int, p float64) Metrics {
	return Metrics{
		K:            k,
		Fanout:       Fanout(g, a, k),
		PFanout:      PFanout(g, a, p),
		P:            p,
		CliqueNetCut: CliqueNetCut(g, a),
		SOED:         SOED(g, a, k),
		HyperedgeCut: HyperedgeCut(g, a, k),
		Imbalance:    Imbalance(a, k),
	}
}
