package core

import "shp/internal/rng"

// The proposal plane: the master side of the move protocol (supersteps 3–4
// of Figure 3) that both in-process refiners run, kept across iterations
// instead of being refolded from every proposal each time. Every proposal
// (from, to, gain) sits in its move direction's gain histogram and in a
// member list per (direction, sign, dyadic bin) — the gain-bucket queues of
// FM refinement. Matching reads the histograms in place, and the coin phase
// visits only the members of the bins matching granted a positive
// probability. After an iteration only the vertices whose proposal changed
// touch the plane, so it costs O(frontier) to keep and O(live directions ×
// bins) to match.
//
// Bit-identity discipline: callers reconcile vertices in ascending id order
// through update's changed-only filter (re-applying an unchanged value,
// sum -= g; sum += g, would not be a float no-op). SHP-2's bins are defined
// by that canonical change sequence: full sweeps and frontier passes visit
// different candidate sets but apply the same changes, so the sums land on
// the same bits in every regime. SHP-k's plane must equal a fresh fold of its
// proposals in ascending v, which a maintained sum does only where every sum
// is exact (see directState.gainsInExactRange); outside that range, and on
// its sweeps, SHP-k refills the plane instead. Member order within a bin is
// not meaningful: coins are keyed by (iteration, vertex), and the decided
// list is sorted afterwards.

// densePairK bounds the dense direction index: k*k int32 slots. Beyond it
// the index is a map; both address the same directions, so results do not
// depend on the choice.
const densePairK = 128

// binCodes is the cell count per direction: a sign (positive gains first,
// then non-positive ones keyed by |gain|, like DirHist) times histBins.
const binCodes = 2 * histBins

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

// put maps d to slot; slot 0 removes it.
func (x *pairIndex) put(d dirKey, slot int32) {
	switch {
	case x.dense != nil:
		x.dense[d.from*x.k+d.to] = slot
	case slot == 0:
		delete(x.sparse, d)
	default:
		x.sparse[d] = slot
	}
}

// gainBins is the proposal plane. Direction slots are 0-based here (the
// index stores slot+1); a cell is slot*binCodes + code. A slot whose
// direction lost its last member and whose sums are back at zero — the state
// a new histogram starts in — is released for reuse, so the plane's memory
// follows the live directions, not k².
type gainBins struct {
	idx     pairIndex
	dirs    []*planeDir // by slot; one allocation each, so growth copies none
	free    []int32     // released slots
	granted []grant     // cells the last match gave p > 0
	ms      matchScratch

	ent []planeEntry // by vertex
}

// planeDir is one direction's slot: its histogram, member count, and the
// first member of each of its cells (-1 when empty).
type planeDir struct {
	key     dirKey
	members int32
	hist    DirHist
	head    [binCodes]int32
}

// planeEntry is one vertex's place in the plane: the gain folded into its
// direction's histogram, its cell (-1 = no proposal), and its neighbours in
// the cell's member list. One record, so a visit touches one cache line.
type planeEntry struct {
	rec              float64
	cell, next, prev int32
}

// grant is one cell's move probability from the last match.
type grant struct {
	cell int32
	p    float64
}

// newGainBins sizes the plane for k buckets and nd vertices.
func newGainBins(k, nd int) *gainBins {
	gb := &gainBins{idx: newPairIndex(k)}
	gb.grow(nd)
	return gb
}

// grow extends the per-vertex state to nd vertices, the new ones without a
// proposal.
func (gb *gainBins) grow(nd int) {
	n := len(gb.ent)
	gb.ent = append(gb.ent, make([]planeEntry, nd-n)...)
	for v := n; v < nd; v++ {
		gb.ent[v].cell = -1
	}
}

// update reconciles v's entry with its proposal from → to (to < 0: none)
// with the given gain. An unchanged entry returns without touching the sums.
func (gb *gainBins) update(v, from, to int32, gain float64) {
	e := &gb.ent[v]
	if to < 0 {
		if e.cell >= 0 {
			gb.remove(v)
		}
		return
	}
	d := dirKey{from, to}
	if e.cell >= 0 {
		if e.rec == gain && gb.dirs[e.cell/binCodes].key == d {
			return // same direction and gain, so the same cell
		}
		gb.remove(v)
	}
	s := gb.idx.get(d) - 1
	if s < 0 {
		s = gb.alloc(d)
	}
	pd := gb.dirs[s]
	code := binCode(gain)
	pd.hist.fold(code, gain, 1) // Add, with the bin in hand
	pd.members++
	h := pd.head[code]
	if h >= 0 {
		gb.ent[h].prev = v
	}
	pd.head[code] = v
	*e = planeEntry{rec: gain, cell: s*binCodes + code, next: h, prev: -1}
}

// remove retracts v's entry, releasing its direction if that leaves it in a
// new histogram's state.
func (gb *gainBins) remove(v int32) {
	e := &gb.ent[v]
	s := e.cell / binCodes
	pd := gb.dirs[s]
	pd.hist.fold(e.cell%binCodes, e.rec, -1) // Remove, with the bin in hand
	if e.prev >= 0 {
		gb.ent[e.prev].next = e.next
	} else {
		pd.head[e.cell%binCodes] = e.next
	}
	if e.next >= 0 {
		gb.ent[e.next].prev = e.prev
	}
	e.cell = -1
	if pd.members--; pd.members == 0 && pd.hist == (DirHist{}) {
		gb.idx.put(pd.key, 0)
		gb.free = append(gb.free, s)
	}
}

// alloc gives direction d a slot with an empty histogram and empty cells.
func (gb *gainBins) alloc(d dirKey) int32 {
	s := int32(len(gb.dirs))
	if n := len(gb.free); n > 0 {
		s = gb.free[n-1]
		gb.free = gb.free[:n-1]
	} else {
		gb.dirs = append(gb.dirs, new(planeDir))
	}
	pd := gb.dirs[s]
	*pd = planeDir{key: d}
	for c := range pd.head {
		pd.head[c] = -1
	}
	gb.idx.put(d, s+1)
	return s
}

// refill empties the plane and folds every proposal (vertex v proposes
// bucket[v] → target[v] with gains[v]) into it in ascending v: a fresh fold,
// bit for bit.
func (gb *gainBins) refill(bucket, target []int32, gains []float64) {
	// Every slot is released, to be reused in ascending order.
	gb.free = gb.free[:0]
	for s := len(gb.dirs) - 1; s >= 0; s-- {
		gb.idx.put(gb.dirs[s].key, 0)
		gb.dirs[s].members = 0
		gb.free = append(gb.free, int32(s))
	}
	for v := range gb.ent {
		gb.ent[v].cell = -1
	}
	for v, tgt := range target[:len(bucket)] {
		gb.update(int32(v), bucket[v], tgt, gains[v])
	}
}

// match runs the pairing protocol over every live direction and its reverse
// (an absent or emptied reverse matches as an empty histogram) and records
// the cells it grants a positive probability. extra[b] is the unpaired
// moves bucket b may still receive (nil: none). The matcher is symmetric in
// its two sides, so which direction of a pair plays A does not show.
func (gb *gainBins) match(extra []int64) {
	gb.granted = gb.granted[:0]
	var empty DirHist
	for s, pd := range gb.dirs {
		if pd.members == 0 {
			continue
		}
		d := pd.key
		rs := gb.idx.get(dirKey{d.to, d.from}) - 1
		live := rs >= 0 && gb.dirs[rs].members > 0
		if live && d.from > d.to {
			continue // the pair is matched from its other direction
		}
		rh := &empty
		if rs >= 0 {
			rh = &gb.dirs[rs].hist
		}
		var ea, eb int64
		if extra != nil {
			ea, eb = extra[d.to], extra[d.from]
		}
		ms := &gb.ms
		ms.match(&pd.hist, rh, ea, eb)
		gb.grant(int32(s), ms.binsA, ms.quotaA)
		if live {
			gb.grant(rs, ms.binsB, ms.quotaB)
		}
	}
}

func (gb *gainBins) grant(s int32, bins []orderedBin, quota []int64) {
	for i, bin := range bins {
		if quota[i] == 0 {
			continue
		}
		code := int32(bin.idx)
		if !bin.positive {
			code += histBins
		}
		gb.granted = append(gb.granted, grant{s*binCodes + code, binProb(bin, quota[i])})
	}
}

// coins draws the members of every granted cell against its probability,
// marks the winners in decided and appends them to list, unsorted; visits is
// the members drawn. Each coin is keyed by (iterKey, v), so the draw order
// does not matter.
func (gb *gainBins) coins(seed, iterKey uint64, decided []bool, list []int32) (_ []int32, visits int64) {
	for _, g := range gb.granted {
		for v := gb.dirs[g.cell/binCodes].head[g.cell%binCodes]; v >= 0; v = gb.ent[v].next {
			visits++
			if rng.CoinAt(seed, rng.Mix(iterKey, uint64(v))) < g.p {
				decided[v] = true
				list = append(list, v)
			}
		}
	}
	return list, visits
}
