package core

import "fmt"

// IterPolicy is the one iteration schedule of all three refiners: SHP-2's
// bisections, SHP-k's runs and Session epochs, and distshp's levels. After
// each move batch it decides how the engine applies the batch and whether
// the run stops. The stop rule is the paper's; the modes are upkeep of the
// incremental state and never change a result.
type IterPolicy struct {
	maxIters    int     // iterations per run: a bisection, an SHP-k run or epoch, a level
	minMove     float64 // stop after a batch that moved less than this fraction
	sweepEvery  int     // also sweep every sweepEvery-th batch; <= 0 never (tests only)
	fallbackDiv int     // sweep a batch that moved at least n/fallbackDiv
}

// The measured patch-vs-sweep divisors. In process, past 1/8 moved,
// patching the neighbor data and the members of dirty queries costs more
// than recomputing both. On the wire, 1/32 was measured when patches
// shipped uncombined, one record per changed count. Both paths now ship
// one folded record per (worker, data vertex), and 1/8 measured no faster
// on dist-tcp-social's graph (20 distshp calls, 2 workers over loopback
// TCP, GOMAXPROCS 1: even on seed 11, 5 % slower on seed 1011), so the
// wire keeps 1/32. Results do not depend on the divisor.
const (
	InProcessFallbackDiv = 8
	WireFallbackDiv      = 32
)

// BatchMode is how an engine applies a move batch. Both leave the same
// state, bit for bit: every patch is exact integer arithmetic.
type BatchMode uint8

const (
	Patch BatchMode = iota // fold the batch into the state, re-evaluate its frontier
	Sweep                  // too large to patch: recompute the state in one pass, re-evaluate all
)

// NewIterPolicy builds the policy from an iteration cap, a stop fraction, a
// forced-sweep period and an engine's fallback divisor. The period is the
// equivalence tests' full-recompute oracle (1 is the paper's recomputation
// every iteration); every other caller passes 0, never.
func NewIterPolicy(maxIters int, minMoveFraction float64, sweepEvery, fallbackDiv int) IterPolicy {
	return IterPolicy{maxIters: maxIters, minMove: minMoveFraction, sweepEvery: sweepEvery, fallbackDiv: fallbackDiv}
}

// Validate rejects a cap that runs no iteration. The option fields behind it
// map 0 to their default first, so only a negative value gets here.
func (p IterPolicy) Validate() error {
	if p.maxIters < 1 {
		return fmt.Errorf("iteration cap must be positive, got %d", p.maxIters)
	}
	return nil
}

// Next decides what follows batch iter (0-based within the run), which
// moved `moved` of n vertices: the mode that applies it, and whether the run
// stops after it.
func (p IterPolicy) Next(iter int, moved int64, n int) (BatchMode, bool) {
	mode := Patch
	if moved*int64(p.fallbackDiv) >= int64(n) || p.sweepEvery > 0 && (iter+1)%p.sweepEvery == 0 {
		mode = Sweep
	}
	stop := iter+1 >= p.maxIters || moved == 0 || float64(moved)/float64(n) < p.minMove
	return mode, stop
}
