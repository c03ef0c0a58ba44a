package core

import (
	"errors"
	"fmt"
	"math"

	"shp/internal/hypergraph"
)

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
//
// # Integer units
//
// Every table value is an integer: the p-fanout tables count units of
// 2^-gainGridBits (T[i] is (1-p')^i rounded to that grid), the clique-net
// tables are integers already. Weights are int32, so every Equation 1 sum
// (accumulators, gains, histogram sums, the running objective) is an int64
// count of units, and int64 addition is associative and commutative: a
// patched accumulator equals a from-scratch resummation, and a histogram
// merged from parts equals one folded directly, in any order. A gain turns
// into a float (times GainTables.Unit) only where it picks a histogram bin
// or a move probability (binCode), and an objective only where it is
// reported. The unit of a gain is mult·2^-shift: for p a power of two
// (P = 0.5, the default) it is a power of two, and that float is exact.

// gainGridBits fixes the dyadic grid of the probabilistic-fanout tables:
// every T[i] is an integer count of 2^-gainGridBits. The rounding perturbs
// table values by ≤2^-33 (≈1e-10), far below any quality-relevant scale.
const gainGridBits = 32

// gainLimit bounds every gain-side sum in units; see GainTables.checkRange.
const gainLimit = 1 << 62

// ErrGainRange reports a graph whose Equation 1 sums would leave the int64
// range of the integer gain arithmetic: too many weighted incidences (about
// 5·10^8 for p-fanout) or too large a MoveCostPenalty.
var ErrGainRange = errors.New("core: Equation 1 sums exceed the integer gain range")

// GainTables bundles the per-objective lookup tables for one side/bucket
// role. maxN is the largest neighbor count that will be looked up
// (the maximum query degree of the subproblem).
type GainTables struct {
	// T[i] is the gain table value, in units, for a bucket currently holding
	// i of a query's data vertices.
	T []int64
	// C[i] is the objective contribution, in units of 2^-shift, of a bucket
	// holding i of a query's data vertices.
	C []int64
	// shift is the table grid: gainGridBits for p-fanout, 0 for clique-net.
	shift int
	// unit is one gain unit in objective units: mult·2^-shift, where mult
	// scales summed T differences into objective units.
	unit float64
}

// NewPFanoutTables builds tables for probabilistic fanout with fanout
// probability p and lookahead split count t (t = 1 disables lookahead).
func NewPFanoutTables(p float64, t int, maxN int) GainTables {
	if t < 1 {
		t = 1
	}
	const one = 1 << gainGridBits
	base := 1 - p/float64(t)
	T := make([]int64, maxN+2)
	C := make([]int64, maxN+2)
	T[0] = one
	for i := 1; i < len(T); i++ {
		T[i] = int64(math.Round(float64(T[i-1]) * base))
	}
	for i := range C {
		C[i] = int64(t) * (one - T[i])
	}
	return GainTables{T: T, C: C, shift: gainGridBits, unit: math.Ldexp(p, -gainGridBits)}
}

// NewCliqueNetTables builds tables for the clique-net edge-cut objective.
// The reported "objective" is the negated within-bucket pair weight, so that
// smaller is better, consistent with the other objectives.
func NewCliqueNetTables(maxN int) GainTables {
	T := make([]int64, maxN+2)
	C := make([]int64, maxN+2)
	for i := range T {
		T[i] = -int64(i)
		C[i] = -int64(i) * int64(i-1) / 2
	}
	return GainTables{T: T, C: C, unit: 1}
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

// objective converts an objective sum of C values into objective units.
func (g GainTables) objective(u float64) float64 { return math.Ldexp(u, -g.shift) }

// penaltyUnits quantises a MoveCostPenalty (in objective units) to gain
// units, once, so that it adds to a gain as an integer.
func (g GainTables) penaltyUnits(penalty float64) int64 {
	return int64(math.Round(penalty / g.unit))
}

// checkRange is the one range check of the integer gain arithmetic, run
// where tables and weighted degrees are built. w is Σ_v wdeg(v) = Σ_q
// w_q·|q| over the graph the tables serve, nd its data vertex count and
// penalty the MoveCostPenalty in effect (0 for none).
//
// Every per-query term of an accumulator is w_q·T[·] (SHP-k's own-bucket
// and per-candidate sums) or w_q·(T[a] − T[b]) (the one accumulator SHP-2
// and distshp keep per data vertex, which is its gain, with T[a] and T[b]
// from tables of any lookahead), and both |T[·]| and |T[a] − T[b]| are at
// most span in units (TestGainTermsWithinSpan). So every accumulator and
// every gain (SHP-k's is a difference of two of its sums, Σ_q w_q·(T[·] −
// T[0]) term by term) is at most wdeg(v)·span in magnitude; a penalised
// gain adds one penalty; a histogram sum is a sum of gains over distinct
// vertices, and the running objective is at most the same bound. So the
// bound below keeps each of them under 2^62 and the sum or difference of
// any two under 2^63. Both table families are monotone, so max|T| is an
// end's, and the bound does not fall as maxN grows: sized for more pins
// than the graph has, it errs on the safe side.
func (g GainTables) checkRange(w float64, nd int, penalty float64) error {
	bound := float64(w * g.span())
	if penalty > 0 {
		bound += float64(float64(nd) * math.Round(penalty/g.unit))
	}
	if !(bound < gainLimit) {
		return fmt.Errorf("%w: %.3g units of a %.3g limit", ErrGainRange, bound, float64(gainLimit))
	}
	return nil
}

// span bounds one query's term of an accumulator, in units: |T[0]| +
// max(|T[0]|, |T[end]|). Lookahead changes no p-fanout table's span (every
// T lies in [0, T[0]] with the same T[0]), so one table's covers both sides
// of a bisection.
func (g GainTables) span() float64 {
	t0 := math.Abs(float64(g.T[0]))
	return t0 + max(t0, math.Abs(float64(g.T[len(g.T)-1])))
}

// incidenceWeight returns Σ_q w_q·|q|, which is Σ_v wdeg(v): the w of
// checkRange.
func incidenceWeight(g *hypergraph.Bipartite) float64 {
	if !g.QueryWeighted() {
		return float64(g.NumEdges())
	}
	w := 0.0
	for q := range int32(g.NumQueries()) {
		w += float64(int64(g.QueryWeight(q)) * int64(g.QueryDegree(q)))
	}
	return w
}

// CheckRange is checkRange over graph h without a penalty, for the
// distributed implementation.
func (g GainTables) CheckRange(h *hypergraph.Bipartite) error {
	return g.checkRange(incidenceWeight(h), h.NumData(), 0)
}

// Unit returns one gain unit in objective units.
func (g GainTables) Unit() float64 { return g.unit }

// Patch arithmetic for incrementally maintained Equation 1 accumulators.
//
// Both in-process refiners and the distributed plane maintain per-vertex
// gain sums whose terms are table values T[·]: the own-bucket sum
// Σ_q T[n_cur(q)−1] and, per candidate/sibling bucket b, sums of T[n_b(q)]
// terms. When one query's count in bucket b changes cOld → cNew, the exact
// change to those sums is a difference of two table values. DeltaOwn and
// DeltaAway are that arithmetic, shared so the distributed implementation
// patches with exactly the integers the in-process engine uses.

// DeltaOwn returns the change to an own-bucket accumulator term
// (contribution T[c−1], or 0 when the vertex's bucket has no entry) when a
// query's count there goes cOld → cNew. Counts of 0 mean "entry absent".
func (g GainTables) DeltaOwn(cOld, cNew int32) int64 {
	var oldT, newT int64
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
func (g GainTables) DeltaAway(cOld, cNew int32) int64 {
	return g.T[cNew] - g.T[cOld]
}
