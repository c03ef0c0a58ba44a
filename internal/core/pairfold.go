package core

// The SHP-k pair-histogram fold: the master side of the move protocol
// (supersteps 3–4 of Figure 3) evaluated in-process. Every proposal
// (from, to, gain) lands in the gain histogram of its move direction; the
// histograms of opposing directions are then matched into per-bin move
// probabilities (pairing.go). The fold walks the vertices in ascending id
// order, so the histogram sums — float folds — and the first-encounter order
// of the directions are functions of the proposals alone.

// densePairK bounds the dense direction index: k*k int32 slots for the
// histograms' slot map. Beyond it the index is a map; both containers
// address identical histograms, so results do not depend on the choice.
const densePairK = 128

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

// pairFold owns the whole protocol state of one refiner: the per-direction
// histograms and the probability tables matched from them. Everything is
// reused across iterations.
type pairFold struct {
	idx   pairIndex
	keys  []dirKey // directions, first-encounter order
	hists []DirHist
	probs []ProbTable
	done  []bool
	ms    matchScratch
}

func newPairFold(k int) *pairFold {
	return &pairFold{idx: newPairIndex(k)}
}

// fold aggregates the proposals (vertex v proposes bucket[v] → target[v]
// with gains[v]; target < 0 = no proposal) into the per-direction
// histograms, in ascending v. The first-encounter order of the directions
// fixes each pair's A side in match.
func (f *pairFold) fold(bucket, target []int32, gains []float64) {
	f.idx.forget(f.keys)
	f.keys = f.keys[:0]
	f.hists = f.hists[:0]
	for v, tgt := range target[:len(bucket)] {
		if tgt >= 0 {
			f.at(dirKey{bucket[v], tgt}).Add(gains[v])
		}
	}
}

// at returns direction d's histogram, zeroed on first touch. The pointer
// must not be retained across calls (the backing array may grow).
func (f *pairFold) at(d dirKey) *DirHist {
	s := f.idx.get(d)
	if s == 0 {
		f.keys = append(f.keys, d)
		f.hists = append(f.hists, DirHist{})
		s = int32(len(f.keys))
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
