package core

import (
	"math/bits"

	"shp/internal/par"
)

// The SHP-k pair-histogram fold: the master side of the move protocol
// (supersteps 3–4 of Figure 3) evaluated in-process. Every proposal
// (from, to, gain) lands in the gain histogram of its move direction; the
// histograms of opposing directions are then matched into per-bin move
// probabilities (pairing.go).
//
// Histogram sums are float folds, so their boundaries are the determinism
// contract: proposals are accumulated per fixed vertex-range shard (see
// histShardCount — a function of |D| alone) and the per-shard partials are
// merged in ascending shard order. Workers only decide who computes which
// shard. A shard holds about two proposals per direction, so the partials
// are kept occupancy-sparse: each worker owns ONE reusable partial, and
// after every shard drains its occupied (direction, sign, bin) cells —
// zeroing them as it goes — into a compact run of its output list. The
// serial merge replays the runs in worker (= ascending shard) order. The
// work is proportional to occupied cells; no dense DirHist is zeroed or
// summed per (shard, direction), and nothing is sorted.

// densePairK bounds the dense direction index: k*k int32 slots per worker
// partial and for the merged histograms. Beyond it the index is a map; both
// containers address identical histograms, so results do not depend on the
// choice.
const densePairK = 128

// histShardMin/histShardMax fix the pair-histogram fold decomposition as a
// function of the vertex count ALONE: one shard per histShardMin vertices,
// capped at histShardMax. The cap and floor are pure performance knobs; any
// fixed layout yields worker-count-independent bits.
const (
	histShardMin = 2048
	histShardMax = 32
)

// histShardCount returns the fixed pair-histogram shard count for nd
// vertices.
func histShardCount(nd int) int {
	s := nd / histShardMin
	if s < 1 {
		s = 1
	}
	if s > histShardMax {
		s = histShardMax
	}
	return s
}

// dirKey is one move direction: an ordered (from, to) bucket pair.
type dirKey struct{ from, to int32 }

// pairIndex maps a direction to a 1-based slot (0 = absent).
type pairIndex struct {
	k      int32
	dense  []int32          // by from*k+to; nil when k > densePairK
	sparse map[dirKey]int32 // the large-k container
}

func newPairIndex(k int) pairIndex {
	if k <= densePairK {
		return pairIndex{k: int32(k), dense: make([]int32, k*k)}
	}
	return pairIndex{k: int32(k), sparse: make(map[dirKey]int32)}
}

func (x *pairIndex) get(d dirKey) int32 {
	if x.dense != nil {
		return x.dense[d.from*x.k+d.to]
	}
	return x.sparse[d]
}

func (x *pairIndex) put(d dirKey, slot int32) {
	if x.dense != nil {
		x.dense[d.from*x.k+d.to] = slot
		return
	}
	x.sparse[d] = slot
}

// forget drops the given directions — all the index holds — so a reset
// costs O(touched), not O(k²).
func (x *pairIndex) forget(keys []dirKey) {
	if x.dense == nil {
		clear(x.sparse)
		return
	}
	for _, d := range keys {
		x.dense[d.from*x.k+d.to] = 0
	}
}

// histCell is one (sign, bin) cell of a histogram: proposal count and gain
// sum.
type histCell struct {
	n   int64
	sum float64
}

// partialHist is one direction's histogram within the shard a worker is
// accumulating. mask records the occupied bins per sign ([0] positive gains,
// [1] non-positive, keyed by |gain| like DirHist); every cell outside the
// mask is zero, which is what lets drainShard reset it in O(occupied).
// Occupancy lives on this type, not on DirHist: DirHist's other writers
// (DecodeDirHist, gainBins.hist) fill fields directly and stay correct
// under Merge because Merge reads every bin.
type partialHist struct {
	mask [2]uint64
	cell [2][histBins]histCell
}

// add records one proposal: the same float operations as DirHist.Add.
func (h *partialHist) add(gain float64) {
	sign, b := 0, 0
	if gain > 0 {
		b = binFor(gain)
	} else {
		sign, b = 1, binFor(-gain)
	}
	h.mask[sign] |= 1 << uint(b)
	c := &h.cell[sign][b]
	c.n++
	c.sum += gain
}

// drainedPair heads one direction's run in a worker's drained output: the
// occupancy masks say which cells follow (positive bins ascending, then
// non-positive bins ascending).
type drainedPair struct {
	dir  dirKey
	mask [2]uint64
}

// foldWorker is one worker's fold state: the reusable partial of the shard
// in progress (idx/keys/hists) and the drained output of every shard it has
// finished this iteration (pairs/cells), one run per shard in ascending
// shard order.
type foldWorker struct {
	idx   pairIndex
	keys  []dirKey // directions of the current shard, first-touch order
	hists []partialHist

	pairs []drainedPair
	cells []histCell
}

func (w *foldWorker) add(d dirKey, gain float64) {
	s := w.idx.get(d)
	if s == 0 {
		w.keys = append(w.keys, d)
		s = int32(len(w.keys))
		if int(s) > len(w.hists) {
			w.hists = append(w.hists, partialHist{})
		}
		w.idx.put(d, s)
	}
	w.hists[s-1].add(gain)
}

// drainShard moves the current shard's occupied cells to the output list, in
// first-touch direction order, and leaves the partial empty (all cells
// zero, index cleared) for the next shard.
func (w *foldWorker) drainShard() {
	for i, d := range w.keys {
		h := &w.hists[i]
		w.pairs = append(w.pairs, drainedPair{dir: d, mask: h.mask})
		for sign := range h.mask {
			for m := h.mask[sign]; m != 0; m &= m - 1 {
				c := &h.cell[sign][bits.TrailingZeros64(m)]
				w.cells = append(w.cells, *c)
				*c = histCell{}
			}
			h.mask[sign] = 0
		}
	}
	w.idx.forget(w.keys)
	w.keys = w.keys[:0]
}

// pairFold owns the whole protocol state of one refiner: the per-worker
// partials, the merged per-direction histograms, and the probability tables
// matched from them. Everything is reused across iterations.
type pairFold struct {
	workers []foldWorker

	idx   pairIndex
	keys  []dirKey // merged directions, first-encounter order
	hists []DirHist
	probs []ProbTable
	done  []bool
	ms    matchScratch
}

func newPairFold(k, workers int) *pairFold {
	f := &pairFold{workers: make([]foldWorker, workers), idx: newPairIndex(k)}
	for w := range f.workers {
		f.workers[w].idx = newPairIndex(k)
	}
	return f
}

// fold aggregates the proposals (vertex v proposes bucket[v] → target[v]
// with gains[v]; target < 0 = no proposal) into the merged per-direction
// histograms. The merged bits — and the first-encounter order of the
// directions, which fixes each pair's A side in match — depend only on the
// inputs, never on the worker count.
func (f *pairFold) fold(bucket, target []int32, gains []float64) {
	bounds := par.ForShards(len(bucket), histShardCount(len(bucket)))
	for w := range f.workers {
		// Every worker, not just the ones this call engages: fewer may run
		// than last time, and a stale run would be merged again.
		f.workers[w].pairs = f.workers[w].pairs[:0]
		f.workers[w].cells = f.workers[w].cells[:0]
	}
	// A direction exists only where a vertex proposes it, so a shard touches
	// at most min(k(k−1), its proposals) of them and the merge at most
	// min(k(k−1), drained runs). The histogram arrays get that capacity on
	// first use: grown by append, their 2 KB elements left several times the
	// final arrays behind as garbage in the refiner's first iteration, where
	// the live heap peaks.
	dirs := int(f.idx.k) * int(f.idx.k-1)
	par.ForWorker(len(bounds), len(f.workers), func(w, s, e int) {
		fw := &f.workers[w]
		if fw.hists == nil {
			n := 0
			for _, tgt := range target[bounds[s].Start:bounds[s].End] {
				if tgt >= 0 {
					n++
				}
			}
			fw.hists = make([]partialHist, 0, min(dirs, n))
		}
		for sh := s; sh < e; sh++ {
			for v := bounds[sh].Start; v < bounds[sh].End; v++ {
				if tgt := target[v]; tgt >= 0 {
					fw.add(dirKey{bucket[v], tgt}, gains[v])
				}
			}
			fw.drainShard()
		}
	})

	f.idx.forget(f.keys)
	f.keys = f.keys[:0]
	if f.hists == nil {
		runs := 0
		for w := range f.workers {
			runs += len(f.workers[w].pairs)
		}
		f.hists = make([]DirHist, 0, min(dirs, runs))
	}
	f.hists = f.hists[:0]
	// par.ForWorker hands out contiguous ascending shard ranges in worker
	// order, so walking the workers' outputs in order replays the shards in
	// ascending order.
	for w := range f.workers {
		cells := f.workers[w].cells
		for _, p := range f.workers[w].pairs {
			h := f.at(p.dir)
			cells = mergeCells(&h.posCount, &h.posSum, p.mask[0], cells)
			cells = mergeCells(&h.negCount, &h.negSum, p.mask[1], cells)
		}
	}
}

// mergeCells adds one sign's drained cells — one per set bit of mask, in
// ascending bin order — into a merged histogram's arrays and returns the
// cells that remain.
func mergeCells(count *[histBins]int64, sum *[histBins]float64, mask uint64, cells []histCell) []histCell {
	for ; mask != 0; mask &= mask - 1 {
		b := bits.TrailingZeros64(mask)
		count[b] += cells[0].n
		sum[b] += cells[0].sum
		cells = cells[1:]
	}
	return cells
}

// at returns direction d's merged histogram, zeroed on first touch. The
// pointer must not be retained across calls (the backing array may grow).
func (f *pairFold) at(d dirKey) *DirHist {
	s := f.idx.get(d)
	if s == 0 {
		f.keys = append(f.keys, d)
		s = int32(len(f.keys))
		if n := len(f.hists); n < cap(f.hists) {
			f.hists = f.hists[:n+1]
			f.hists[n] = DirHist{}
		} else {
			f.hists = append(f.hists, DirHist{})
		}
		f.idx.put(d, s)
	}
	return &f.hists[s-1]
}

// match runs the pairing protocol over every pair of opposing directions of
// the last fold. The direction encountered first plays the matcher's A side.
func (f *pairFold) match() {
	n := len(f.keys)
	if cap(f.probs) < n {
		f.probs = make([]ProbTable, n)
		f.done = make([]bool, n)
	}
	f.probs, f.done = f.probs[:n], f.done[:n]
	clear(f.done)
	var empty DirHist
	for si, d := range f.keys {
		if f.done[si] {
			continue
		}
		rh := &empty
		rs := f.idx.get(dirKey{d.to, d.from})
		if rs != 0 {
			rh = &f.hists[rs-1]
		}
		pa, pb := f.ms.match(&f.hists[si], rh, 0, 0)
		f.probs[si] = pa
		f.done[si] = true
		if rs != 0 {
			f.probs[rs-1] = pb
			f.done[rs-1] = true
		}
	}
}

// prob returns direction (from, to)'s probability table from the last
// match, or nil if nothing proposed that direction.
func (f *pairFold) prob(from, to int32) *ProbTable {
	if s := f.idx.get(dirKey{from, to}); s != 0 {
		return &f.probs[s-1]
	}
	return nil
}
