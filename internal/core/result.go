package core

import (
	"time"

	"shp/internal/partition"
)

// IterStats records one refinement iteration for convergence analysis
// (Figure 7 of the paper plots these series).
type IterStats struct {
	// Level is the recursion level (0-based) for recursive mode, or 0 for
	// direct mode.
	Level int
	// Task identifies the bisection subproblem within the level by the
	// first bucket of its range; 0 in direct mode.
	Task int
	// Iter is the iteration index within the refinement, 0-based.
	Iter int
	// Objective is the optimized objective value on the subproblem after
	// the iteration (sum over its queries, not normalized).
	Objective float64
	// Moved is the number of data vertices that changed bucket.
	Moved int64
	// MovedFraction is Moved divided by the subproblem size.
	MovedFraction float64
	// Fanout is the global average fanout after the iteration — the
	// query-weighted mean partition.Fanout computes, read off the direct
	// engine's running entry count. Direct mode fills it every iteration
	// (Figure 7 plots it); the recursive strategy's bisections, whose
	// subproblems have no global fanout, leave it 0.
	Fanout float64
}

// WorkStats records one refinement iteration's work-counter deltas — the
// observability companion to IterStats, kept separate so runs under
// different rebuild schedules (Options.NDRebuildEvery) can stay
// byte-identical on IterStats while legitimately differing here (sublinear
// frontier work is the whole point).
type WorkStats struct {
	// Level/Task/Iter locate the iteration exactly like IterStats.
	Level int
	Task  int
	Iter  int
	// Frontier is the number of vertices whose proposal the iteration
	// re-derived (|D| after a scheduled rebuild or a sweep fallback);
	// vertices the pass only probed and skipped count in ScanWork.
	Frontier int64
	// GainWork counts Equation 1 work units: one per table term summed in a
	// gain rebuild, one per delta record folded into an accumulator.
	GainWork int64
	// ScanWork counts per-vertex visits in the phases around the gain math
	// (gain/sync/coin/selection loops). The move batch's commit charges one
	// visit per decided move it applies; its trim is not charged.
	ScanWork int64
}

// Result is a finished partitioning.
type Result struct {
	// Assignment maps each data vertex to its bucket in [0, K).
	Assignment partition.Assignment
	// K is the bucket count.
	K int
	// Iterations is the total number of refinement iterations across all
	// levels and subproblems.
	Iterations int
	// History holds per-iteration statistics ordered by (Level, Task, Iter).
	History []IterStats
	// Work holds per-iteration work counters, ordered like History. Unlike
	// History it is NOT pinned across the incremental/full paths.
	Work []WorkStats
	// Elapsed is the wall-clock partitioning time.
	Elapsed time.Duration
	// Migrated is the number of records that ended the epoch on a bucket
	// other than the one they started it on — the serving-plane migration
	// traffic the epoch causes. Only tracked when Options.MigrationBudget is
	// set (it is then <= the budget, pinned by test); 0 otherwise.
	Migrated int64
}
