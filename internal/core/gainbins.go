package core

import "slices"

// Maintained gain-bin buckets for the SHP-2 bisection refiner.
//
// The histogram protocol (pairing.go) only ever consumes per-(side, sign,
// dyadic bin) counts and gain sums, and the exact pairing only needs each
// side's vertices in (gain desc, id asc) order. Both views are derivable
// from one structure: a dense vertex list per bin, kept current across
// iterations instead of being rebuilt by an O(|D|) sweep. After an iteration
// that moved m vertices, only the movers and the patched members of their
// dirty queries can have a different (side, gain) — so reconciling the bins
// costs O(frontier), and the per-iteration histogram is read off in O(bins).
//
// # Sharding
//
// For the histogram protocol the structure is sharded by fixed vertex
// ranges (gainBinShardSize ids per shard): vertex v's bins live in shard
// v >> gainBinShardBits, so the sync and coin phases parallelize over
// shards with no locking — a vertex never leaves its shard. The shard
// boundaries are a function of |D| alone, NEVER of the worker count: the
// per-(shard, slot) sums are maintained independently and folded in
// ascending shard order at histogram-read time, so the float fold order —
// and with it every downstream probability table — is identical for every
// Options.Parallelism. Workers only decide who processes which shards.
//
// The exact pairing (PairExact) instead needs each side's vertices in one
// global (gain desc, id asc) order, so its bisections construct the
// structure unsharded (one shard covering everything); the choice is keyed
// off Options.Pairing, which is worker-count independent.
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
// are), which lets removal swap with the last element and lets the exact
// pairing sort bins in place, lazily, on first touch.

// binSlots is the flat per-shard slot space: 2 sides x 2 signs x histBins.
const binSlots = 4 * histBins

// gainBinShardBits/gainBinShardSize fix the vertex-range shard width of the
// histogram-protocol gain bins. The width is a constant (never derived from
// the worker count or GOMAXPROCS), so the shard layout — and the histogram
// fold order it induces — depends only on the vertex count.
const (
	gainBinShardBits = 13
	gainBinShardSize = 1 << gainBinShardBits
)

// gainBins is the maintained bucket structure. Vertices not yet inserted
// (before the first sync) have slot -1.
type gainBins struct {
	// shards is the number of fixed vertex-range shards (1 when unsharded);
	// list and sum are indexed by shard*binSlots + slot.
	shards  int
	sharded bool
	nd      int
	list    [][]int32
	sum     []float64

	slot []int16   // vertex -> slot index within its shard, -1 before first insert
	pos  []int32   // vertex -> position within its slot's list
	rec  []float64 // vertex -> recorded gain (the value folded into sum)
}

// newGainBins sizes the structure for nd vertices. sharded selects the
// fixed vertex-range shard layout (histogram protocol); the exact pairing
// passes false to keep one global shard for its ordered cursors.
func newGainBins(nd int, sharded bool) *gainBins {
	shards := 1
	if sharded && nd > gainBinShardSize {
		shards = (nd + gainBinShardSize - 1) / gainBinShardSize
	}
	gb := &gainBins{
		shards:  shards,
		sharded: sharded && shards > 1,
		nd:      nd,
		list:    make([][]int32, shards*binSlots),
		sum:     make([]float64, shards*binSlots),
		slot:    make([]int16, nd),
		pos:     make([]int32, nd),
		rec:     make([]float64, nd),
	}
	for i := range gb.slot {
		gb.slot[i] = -1
	}
	return gb
}

// shardBase returns the first flat slot index of vertex v's shard.
func (gb *gainBins) shardBase(v int32) int {
	if !gb.sharded {
		return 0
	}
	return int(v>>gainBinShardBits) * binSlots
}

// shardRange returns shard sh's vertex id range [lo, hi).
func (gb *gainBins) shardRange(sh int) (lo, hi int) {
	if !gb.sharded {
		return 0, gb.nd
	}
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

// binCursor yields one side's vertices in exact (gain desc, id asc) order
// by walking the side's bins best-first — positive bins from the largest
// down, then non-positive bins from closest-to-zero down — sorting each bin
// in place, lazily, on first touch. Bin value ranges are disjoint and
// ordered, and equal gains always share a bin, so the concatenation of the
// per-bin sorts is exactly the global sort the serial pairing used to
// build; bins the greedy pairing never reaches are never sorted. work
// counts the vertices of every sorted bin, for the scan-work accounting.
//
// Requires the unsharded layout: the per-bin lists must hold each bin's
// whole population for the concatenation to be the global order.
type binCursor struct {
	bins  *gainBins
	gains []float64
	base  int // the side's first slot
	seq   int // position in best-first bin order, -1 before the first bin
	idx   int // read position within the current bin
	cur   []int32
	work  int64
}

func newBinCursor(bins *gainBins, gains []float64, side int) binCursor {
	if bins.sharded {
		//shp:panics(invariant: the exact pairing constructs its bins unsharded; a sharded cursor would silently drop vertices)
		panic("core: binCursor over sharded gain bins")
	}
	return binCursor{bins: bins, gains: gains, base: side * 2 * histBins, seq: -1}
}

// peek returns the next vertex and its (iteration-start) gain without
// consuming it; ok is false when the side is exhausted.
func (c *binCursor) peek() (int32, float64, bool) {
	for c.idx >= len(c.cur) {
		c.seq++
		if c.seq >= 2*histBins {
			return -1, 0, false
		}
		var slot int
		if c.seq < histBins {
			slot = c.base + histBins - 1 - c.seq
		} else {
			slot = c.base + histBins + (c.seq - histBins)
		}
		l := c.bins.list[slot]
		if len(l) == 0 {
			continue
		}
		slices.SortFunc(l, func(x, y int32) int {
			gx, gy := c.gains[x], c.gains[y]
			if gx > gy {
				return -1
			}
			if gx < gy {
				return 1
			}
			return int(x - y)
		})
		// The in-place sort moved vertices within the bin; their recorded
		// positions must follow or later swap-removes would corrupt it.
		for i, v := range l {
			c.bins.pos[v] = int32(i)
		}
		c.work += int64(len(l))
		c.cur = l
		c.idx = 0
	}
	v := c.cur[c.idx]
	return v, c.gains[v], true
}

// advance consumes the vertex peek returned.
func (c *binCursor) advance() { c.idx++ }
