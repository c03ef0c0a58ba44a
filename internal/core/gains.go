package core

import "math"

// Move-gain machinery (Equation 1 of the paper).
//
// For probabilistic fanout, the gain of moving data vertex v from bucket cur
// to bucket tgt is (written as an improvement, positive = objective falls):
//
//	gain(v) = p · Σ_{q ∈ N(v)} ((1-p)^{n_cur(q)-1} − (1-p)^{n_tgt(q)})
//
// All refiners evaluate this through a precomputed table T[i] = (1-p')^i, so
// one table swap re-targets the same code at different objectives:
//
//   - p-fanout: T[i] = (1-p)^i, multiplier p.
//   - p-fanout with recursive lookahead (Section 3.4): a bucket that will
//     later split into t buckets contributes t·(1−(1−p/t)^r); the gain keeps
//     the same shape with p' = p/t because t·p' = p. So T[i] = (1-p/t)^i
//     with multiplier p.
//   - clique-net (Lemma 2's p → 0 limit): the within-bucket pair weight
//     changes by n_tgt − (n_cur − 1), which is the same expression with
//     T[i] = −i and multiplier 1.
//
// The matching objective value of a bucket holding c of q's vertices comes
// from a contribution table C[c] (t·(1−(1−p/t)^c) or −C(c,2) respectively);
// refiners report Σ_q Σ_buckets C[n_bucket(q)].

// gainGridBits fixes the dyadic grid all probabilistic-fanout table values
// are rounded to: every T[i] is an integer multiple of 2^-gainGridBits.
// Sums and integer-weighted sums of grid values are EXACT in float64 while
// |sum| < 2^(53-gainGridBits) (≈2M at 32 bits) — addition of exact dyadic
// values has no rounding, so it is associative and commutative. The
// incremental refinement engine leans on this: per-vertex gain accumulators
// patched term-by-term land on exactly the same bits as a from-scratch
// resummation, in any order, which is what makes the patched and rebuilt
// proposal states interchangeable. The quantization perturbs table values
// by ≤2^-33 (≈1e-10), far below any quality-relevant scale; the clique-net
// tables are integers and sit on the grid already.
const gainGridBits = 32

// quantize rounds x to the shared dyadic gain grid.
func quantize(x float64) float64 {
	const scale = 1 << gainGridBits
	return math.Round(x*scale) / scale
}

// GainTables bundles the per-objective lookup tables for one side/bucket
// role. maxN is the largest neighbor count that will be looked up
// (the maximum query degree of the subproblem).
type GainTables struct {
	// T[i] is the gain table value for a bucket currently holding i of a
	// query's data vertices.
	T []float64
	// C[i] is the objective contribution of a bucket holding i of a query's
	// data vertices.
	C []float64
	// mult scales the summed T differences into objective units.
	mult float64
}

// NewPFanoutTables builds tables for probabilistic fanout with fanout
// probability p and lookahead split count t (t = 1 disables lookahead).
func NewPFanoutTables(p float64, t int, maxN int) GainTables {
	if t < 1 {
		t = 1
	}
	pp := p / float64(t)
	T := make([]float64, maxN+2)
	C := make([]float64, maxN+2)
	T[0] = 1
	base := 1 - pp
	for i := 1; i < len(T); i++ {
		T[i] = quantize(T[i-1] * base)
	}
	tf := float64(t)
	for i := range C {
		C[i] = tf * (1 - T[i]) // exact: T on the grid, tf a small integer
	}
	return GainTables{T: T, C: C, mult: p}
}

// NewCliqueNetTables builds tables for the clique-net edge-cut objective.
// The reported "objective" is the negated within-bucket pair weight, so that
// smaller is better, consistent with the other objectives.
func NewCliqueNetTables(maxN int) GainTables {
	T := make([]float64, maxN+2)
	C := make([]float64, maxN+2)
	for i := range T {
		T[i] = -float64(i)
		C[i] = -float64(i) * float64(i-1) / 2
	}
	return GainTables{T: T, C: C, mult: 1}
}

// tablesFor builds the tables for the configured objective.
func tablesFor(opts Options, t int, maxN int) GainTables {
	switch opts.Objective {
	case ObjCliqueNet:
		return NewCliqueNetTables(maxN)
	case ObjFanout:
		return NewPFanoutTables(1, 1, maxN)
	default:
		return NewPFanoutTables(opts.P, t, maxN)
	}
}

// Mult returns the gain multiplier (p for probabilistic fanout, 1 for the
// clique-net objective). Exposed for the distributed implementation.
func (g GainTables) Mult() float64 { return g.mult }

// Patch arithmetic for incrementally maintained Equation 1 accumulators.
//
// Both in-process refiners and the distributed plane maintain per-vertex
// gain sums whose terms are table values T[·]: the own-bucket sum
// Σ_q T[n_cur(q)−1] and, per candidate/sibling bucket b, sums of T[n_b(q)]
// terms. When one query's count in bucket b changes cOld → cNew, the exact
// change to those sums is a difference of two table values. Because every
// T entry lies on the shared dyadic grid (gainGridBits), these differences —
// and any sequence of them folded into an accumulator — are exact float64
// arithmetic while |sum| < 2^(53-gainGridBits), so a patched accumulator is
// bit-identical to a from-scratch resummation in any order. DeltaOwn and
// DeltaAway are that arithmetic, shared so the distributed implementation
// patches with exactly the bits the in-process engine uses.

// DeltaOwn returns the change to an own-bucket accumulator term
// (contribution T[c−1], or 0 when the vertex's bucket has no entry) when a
// query's count there goes cOld → cNew. Counts of 0 mean "entry absent".
func (g GainTables) DeltaOwn(cOld, cNew int32) float64 {
	var oldT, newT float64
	if cOld > 0 {
		oldT = g.T[cOld-1]
	}
	if cNew > 0 {
		newT = g.T[cNew-1]
	}
	return newT - oldT
}

// DeltaAway returns the change to an away-bucket accumulator term when a
// query's count there goes cOld → cNew. It serves both conventions in use:
// the candidate form T[c]−T[0] (zero when absent) and the raw sibling form
// T[c] (T[0] when absent) — the constant terms cancel in the difference, so
// T[cNew] − T[cOld] is the exact delta for both.
func (g GainTables) DeltaAway(cOld, cNew int32) float64 {
	return g.T[cNew] - g.T[cOld]
}
