package core

// Maintained gain-bin buckets for the SHP-2 bisection refiner.
//
// The histogram protocol (pairing.go) only ever consumes per-(side, sign,
// dyadic bin) counts and gain sums, and its coin phase the vertices of the
// bins granted a positive probability. Both are read off one structure: a
// dense vertex list per bin, kept current across iterations instead of being
// rebuilt by an O(|D|) sweep. After an iteration that moved m vertices, only
// the movers and the patched members of their dirty queries can have a
// different (side, gain) — so reconciling the bins costs O(frontier), and
// the per-iteration histogram is read off in O(bins).
//
// Bit-identity discipline: frontier iterations and full-sweep iterations
// (first iteration, sweep fallback, scheduled rebuild) maintain the
// structure through the same canonical rule — visit candidate vertices in
// ascending id order, and for each whose (side, gain) differs from its
// recorded entry, subtract the old gain from its old bin's sum and add the
// new gain to the new bin's sum. A full sweep discovers the changed set with
// a comparison scan over all vertices; a frontier iteration walks its
// (sorted) frontier, which provably contains every changed vertex. The
// surviving change sequences are identical, so the maintained sums land on
// the same bits either way. Bins are never resummed from scratch after the
// initial fill, which keeps the rebuild schedule (NDRebuildEvery) invisible:
// a rebuild reproduces every gain bit-for-bit, so the change set it induces
// is empty.
//
// List order within a bin is not meaningful (only membership and the sums
// are), which lets removal swap with the last element.

// binSlots is the flat slot space: 2 sides x 2 signs x histBins.
const binSlots = 4 * histBins

// gainBins is the maintained bucket structure. Vertices not yet inserted
// (before the first sync) have slot -1.
type gainBins struct {
	list [binSlots][]int32
	sum  [binSlots]float64

	slot []int16   // vertex -> slot index, -1 before first insert
	pos  []int32   // vertex -> position within its slot's list
	rec  []float64 // vertex -> recorded gain (the value folded into sum)
}

// newGainBins sizes the structure for nd vertices.
func newGainBins(nd int) *gainBins {
	gb := &gainBins{
		slot: make([]int16, nd),
		pos:  make([]int32, nd),
		rec:  make([]float64, nd),
	}
	for i := range gb.slot {
		gb.slot[i] = -1
	}
	return gb
}

// binSlot maps a (side, gain) pair to its slot: positive gains use the
// side's first histBins slots, non-positive gains (keyed by |gain|, like
// DirHist) the second.
func binSlot(side int8, gain float64) int16 {
	s := int(side) * 2 * histBins
	if gain > 0 {
		return int16(s + binFor(gain))
	}
	return int16(s + histBins + binFor(-gain))
}

// update reconciles one vertex with its recorded entry. Unchanged vertices
// return without touching the sums — the filter every caller must share,
// because re-applying an unchanged value (sum -= g; sum += g) would not be
// a float no-op.
func (gb *gainBins) update(v int32, side int8, gain float64) {
	s := binSlot(side, gain)
	old := gb.slot[v]
	if old == s && gb.rec[v] == gain {
		return
	}
	if old >= 0 {
		o := int(old)
		gb.sum[o] -= gb.rec[v]
		l := gb.list[o]
		last := len(l) - 1
		moved := l[last]
		i := gb.pos[v]
		l[i] = moved
		gb.pos[moved] = i
		gb.list[o] = l[:last]
	}
	fs := int(s)
	gb.sum[fs] += gain
	gb.pos[v] = int32(len(gb.list[fs]))
	gb.list[fs] = append(gb.list[fs], v)
	gb.slot[v] = s
	gb.rec[v] = gain
}

// hist assembles one side's DirHist from the maintained bins: counts from
// the list lengths, sums from the maintained per-bin totals.
func (gb *gainBins) hist(side int) DirHist {
	var h DirHist
	o := side * 2 * histBins
	for b := 0; b < histBins; b++ {
		h.posCount[b] = int64(len(gb.list[o+b]))
		h.posSum[b] = gb.sum[o+b]
		h.negCount[b] = int64(len(gb.list[o+histBins+b]))
		h.negSum[b] = gb.sum[o+histBins+b]
	}
	return h
}
