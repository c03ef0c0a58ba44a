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
// # Sharding
//
// The structure is sharded by fixed vertex ranges (gainBinShardSize ids per
// shard): vertex v's bins live in shard v >> gainBinShardBits, so the sync
// and coin phases parallelize over shards with no locking — a vertex never
// leaves its shard. The shard boundaries are a function of |D| alone, NEVER
// of the worker count: the per-(shard, slot) sums are maintained
// independently and folded in ascending shard order at histogram-read time,
// so the float fold order — and with it every downstream probability table —
// is identical for every Options.Parallelism. Workers only decide who
// processes which shards.
//
// Bit-identity discipline: frontier iterations and full-sweep iterations
// (first iteration, sweep fallback, scheduled rebuild) maintain the
// structure through the same canonical rule — visit candidate vertices in
// ascending id order within each shard, and for each whose (side, gain)
// differs from its recorded entry, subtract the old gain from its old bin's
// sum and add the new gain to the new bin's sum. A full sweep discovers the
// changed set with a comparison scan over all vertices; a frontier
// iteration walks its (sorted) frontier, which provably contains every
// changed vertex. The surviving change sequences are identical per shard,
// so the maintained sums land on the same bits either way. Bins are never
// resummed from scratch after the initial fill, which keeps the rebuild
// schedule (NDRebuildEvery) invisible: a rebuild reproduces every gain
// bit-for-bit, so the change set it induces is empty.
//
// List order within a bin is not meaningful (only membership and the sums
// are), which lets removal swap with the last element.

// binSlots is the flat per-shard slot space: 2 sides x 2 signs x histBins.
const binSlots = 4 * histBins

// gainBinShardBits/gainBinShardSize fix the vertex-range shard width of the
// gain bins. The width is a constant (never derived from the worker count or
// GOMAXPROCS), so the shard layout — and the histogram fold order it induces
// — depends only on the vertex count.
const (
	gainBinShardBits = 13
	gainBinShardSize = 1 << gainBinShardBits
)

// gainBins is the maintained bucket structure. Vertices not yet inserted
// (before the first sync) have slot -1.
type gainBins struct {
	// shards is the number of fixed vertex-range shards; list and sum are
	// indexed by shard*binSlots + slot.
	shards int
	nd     int
	list   [][]int32
	sum    []float64

	slot []int16   // vertex -> slot index within its shard, -1 before first insert
	pos  []int32   // vertex -> position within its slot's list
	rec  []float64 // vertex -> recorded gain (the value folded into sum)
}

// newGainBins sizes the structure for nd vertices (at least one shard, so an
// empty subproblem still has its slots).
func newGainBins(nd int) *gainBins {
	shards := max(1, (nd+gainBinShardSize-1)/gainBinShardSize)
	gb := &gainBins{
		shards: shards,
		nd:     nd,
		list:   make([][]int32, shards*binSlots),
		sum:    make([]float64, shards*binSlots),
		slot:   make([]int16, nd),
		pos:    make([]int32, nd),
		rec:    make([]float64, nd),
	}
	for i := range gb.slot {
		gb.slot[i] = -1
	}
	return gb
}

// shardBase returns the first flat slot index of vertex v's shard.
func (gb *gainBins) shardBase(v int32) int {
	return int(v>>gainBinShardBits) * binSlots
}

// shardRange returns shard sh's vertex id range [lo, hi).
func (gb *gainBins) shardRange(sh int) (lo, hi int) {
	lo = sh << gainBinShardBits
	hi = lo + gainBinShardSize
	if hi > gb.nd {
		hi = gb.nd
	}
	return lo, hi
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
// a float no-op. Callers updating distinct shards may run concurrently: a
// vertex only ever touches its own shard's lists and sums.
func (gb *gainBins) update(v int32, side int8, gain float64) {
	s := binSlot(side, gain)
	old := gb.slot[v]
	if old == s && gb.rec[v] == gain {
		return
	}
	base := gb.shardBase(v)
	if old >= 0 {
		o := base + int(old)
		gb.sum[o] -= gb.rec[v]
		l := gb.list[o]
		last := len(l) - 1
		moved := l[last]
		i := gb.pos[v]
		l[i] = moved
		gb.pos[moved] = i
		gb.list[o] = l[:last]
	}
	fs := base + int(s)
	gb.sum[fs] += gain
	gb.pos[v] = int32(len(gb.list[fs]))
	gb.list[fs] = append(gb.list[fs], v)
	gb.slot[v] = s
	gb.rec[v] = gain
}

// hist assembles one side's DirHist from the maintained bins: counts from
// the list lengths, sums from the maintained per-(shard, bin) totals folded
// in ascending shard order — a fold whose boundaries are fixed by the shard
// layout, so the histogram bits never depend on the worker count.
func (gb *gainBins) hist(side int) DirHist {
	var h DirHist
	base := side * 2 * histBins
	for sh := 0; sh < gb.shards; sh++ {
		o := sh*binSlots + base
		for b := 0; b < histBins; b++ {
			h.posCount[b] += int64(len(gb.list[o+b]))
			h.posSum[b] += gb.sum[o+b]
			h.negCount[b] += int64(len(gb.list[o+histBins+b]))
			h.negSum[b] += gb.sum[o+histBins+b]
		}
	}
	return h
}
