// Package core implements the Social Hash Partitioner: balanced k-way
// hypergraph partitioning that minimizes fanout by local search on the
// probabilistic-fanout objective (Kabiljo et al., VLDB 2017, Section 3).
//
// Two execution strategies are provided, matching the paper's SHP-2 and
// SHP-k: recursive bisection (the default) and direct k-way refinement
// (Options.Direct). Both iterate the same scheme: compute a move gain for
// every data vertex (Equation 1), pick the best target bucket, and let a
// master pair opposing move proposals so that balance is preserved, using
// Section 3.4's gain-histogram protocol (pairing.go): per-direction
// histograms of move gains in exponentially sized bins, matched best-first,
// with fractional probability on the boundary bin, pairing of positive with
// negative bins when the summed gain is positive, and extra imbalanced moves
// within the ε budget.
package core

import (
	"errors"
	"fmt"

	"shp/internal/partition"
)

// Objective selects what the local search optimizes.
type Objective int

const (
	// ObjPFanout minimizes probabilistic fanout with probability Options.P
	// (the paper's default objective; p=0.5 recommended).
	ObjPFanout Objective = iota
	// ObjFanout minimizes plain fanout directly (the p -> 1 limit, Lemma 1).
	ObjFanout
	// ObjCliqueNet minimizes the clique-net weighted edge-cut (the p -> 0
	// limit, Lemma 2), with exact linear gains rather than a tiny p.
	ObjCliqueNet
)

func (o Objective) String() string {
	switch o {
	case ObjPFanout:
		return "p-fanout"
	case ObjFanout:
		return "fanout"
	case ObjCliqueNet:
		return "clique-net"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// Options configures a partitioning run. The zero value plus K is usable:
// all other fields default to the paper's recommended settings.
type Options struct {
	// K is the number of buckets (required, >= 1).
	K int
	// Epsilon is the allowed imbalance: every bucket holds at most
	// (1+Epsilon) * n/k data vertices. Default 0.05 (the paper's setting).
	Epsilon float64
	// P is the fanout probability for ObjPFanout. Default 0.5.
	P float64
	// Objective selects the optimization target. Default ObjPFanout.
	Objective Objective
	// Direct selects direct k-way refinement (the paper's SHP-k) instead of
	// recursive partitioning (SHP-2, the default and the open-sourced
	// variant).
	Direct bool
	// MaxIters bounds refinement iterations: per bisection in recursive
	// mode, per run or Session epoch in direct mode. 0 means the default, 20
	// recursive and 60 direct; a negative value is rejected, as
	// distshp.Options.ItersPerLevel's is.
	MaxIters int
	// MinMoveFraction stops refinement when the fraction of moved vertices
	// drops below it; an iteration that moves nothing always stops it.
	// Default 0.001. Session epochs run with 0.
	MinMoveFraction float64
	// Parallelism is how many recursion tasks of SHP-2 refine at once; <= 0
	// means GOMAXPROCS, and larger values are capped there. Each task, and
	// every SHP-k run or Session epoch, refines on one goroutine: SHP-k and
	// sessions ignore it.
	//
	// Determinism guarantee: it decides only how fast a run goes, never what
	// it computes. Tasks are independent and write disjoint assignment
	// entries, so assignments, iteration histories, and work counters are
	// byte-identical for every value (including 0 on any machine).
	Parallelism int
	// Seed makes runs reproducible. Two runs with equal options and seed
	// produce identical partitions regardless of parallelism.
	Seed uint64
	// Initial warm-starts refinement from an existing assignment
	// (Section 5's incremental updates). Length must equal NumData.
	Initial partition.Assignment
	// MoveCostPenalty discourages moving vertices away from their Initial
	// assignment: each gain is reduced by this amount (in objective units,
	// rounded to the gain arithmetic's units) when a vertex would leave its
	// initial bucket and increased when it would return. Only meaningful
	// with Initial.
	MoveCostPenalty float64
	// MigrationBudget is the serving-plane objective: a hard cap on the
	// number of records a refinement epoch may move away from the assignment
	// it started from. In a serving system every move is a data copy, and
	// the soft MoveCostPenalty, which gets the better moved-versus-fanout
	// trade on average, bounds nothing (README "Ablations, measured once");
	// the budget is the exact bound on migration traffic per epoch.
	// Semantics:
	//
	//	 0  no budget (the default): refinement moves freely, byte-identical
	//	    to runs predating the knob;
	//	>0  at most this many records end the epoch on a bucket other than
	//	    the one they started it on. Move selection admits the
	//	    budget-consuming moves highest-gain-first (ties to the lower
	//	    vertex id); moves of already-migrated vertices — including moves
	//	    returning them to their starting bucket — never consume budget.
	//	    A record moved back frees its budget slot for the next
	//	    iteration, not the current one, so the invariant
	//	    "records off their epoch-start bucket <= budget" holds after
	//	    every iteration regardless of how the balance trim edits a
	//	    batch;
	//	<0  (MigrationFrozen) a budget of zero: no record leaves its
	//	    starting bucket, only new vertices are placed.
	//
	// The budget binds the direct k-way refiner — Session.Repartition
	// epochs, and Direct one-shot runs warm-started from Initial (the
	// epoch-start reference is Initial after the deterministic balance
	// repair). Deterministic balance repairs and new-vertex placement are
	// exempt: they run before the epoch reference is snapshotted, since
	// feasibility outranks migration cost. The recursive strategy does not
	// support budgets (validate rejects the combination with Initial).
	MigrationBudget int64

	// sweepEvery forces a sweep (the neighbor data recomputed, every data
	// vertex re-evaluated) after every sweepEvery-th batch; 0, which every
	// caller outside this package gets, never forces one. Patched state is
	// exact, so a forced sweep never changes a result: it is the
	// full-recompute side of the equivalence tests, and 1 is the paper's
	// recomputation every iteration.
	sweepEvery int
}

// MigrationFrozen is the MigrationBudget value for a budget of exactly zero
// moved records: the assignment is frozen and refinement may only place new
// vertices. (The zero value of MigrationBudget means "no budget", so the
// frozen state needs a distinct sentinel; any negative value behaves the
// same.)
const MigrationFrozen int64 = -1

// withDefaults returns a copy with defaults filled in.
func (o Options) withDefaults() Options {
	if o.Epsilon == 0 {
		o.Epsilon = 0.05
	}
	if o.P == 0 {
		o.P = 0.5
	}
	if o.Objective == ObjFanout {
		o.P = 1
	}
	if o.MaxIters == 0 {
		if o.Direct {
			o.MaxIters = 60 // the paper's SHP-k default
		} else {
			o.MaxIters = 20 // the paper's per-bisection default
		}
	}
	if o.MinMoveFraction == 0 {
		o.MinMoveFraction = 0.001
	}
	return o
}

// iterPolicy is the iteration schedule of both in-process refiners.
func (o Options) iterPolicy() IterPolicy {
	return NewIterPolicy(o.MaxIters, o.MinMoveFraction, o.sweepEvery, InProcessFallbackDiv)
}

// validate reports configuration errors.
func (o Options) validate(numData int) error {
	if o.K < 1 {
		return errors.New("core: K must be >= 1")
	}
	if err := o.iterPolicy().Validate(); err != nil {
		return fmt.Errorf("core: MaxIters: %w", err)
	}
	if o.Epsilon < 0 {
		return errors.New("core: Epsilon must be >= 0")
	}
	if o.Objective == ObjPFanout && (o.P <= 0 || o.P > 1) {
		return fmt.Errorf("core: P must be in (0, 1], got %v", o.P)
	}
	if o.Initial != nil && len(o.Initial) != numData {
		return fmt.Errorf("core: Initial has %d entries for %d data vertices", len(o.Initial), numData)
	}
	if o.Initial != nil {
		if err := o.Initial.Validate(o.K); err != nil {
			return fmt.Errorf("core: bad Initial: %w", err)
		}
	}
	if o.MoveCostPenalty < 0 {
		return errors.New("core: MoveCostPenalty must be >= 0")
	}
	if o.MigrationBudget != 0 && o.Initial != nil && !o.Direct {
		return errors.New("core: MigrationBudget requires Direct mode when Initial is set (the recursive strategy does not enforce budgets)")
	}
	return nil
}
