package core

import "math"

// Swap pairing: the master-side protocol that converts per-vertex move
// proposals into move probabilities while preserving balance (Section 3.4
// of the paper).
//
// A proposal is (direction, gain). For each unordered bucket pair the master
// sees two opposing queues and must decide how many proposals from each side
// to accept. Accepting one from each side is a balanced swap; accepting an
// unbalanced surplus is allowed only within the ε headroom.

// histBins is the number of exponential gain bins per sign. Gains spanning
// ~19 orders of magnitude (2^64) fit; anything below histBase is treated as
// (almost) zero gain.
const histBins = 64

// histBase is the lower edge of bin 0.
const histBase = 1e-12

// dampProb caps per-bin move probabilities in the histogram protocol.
// A strictly-below-one cap is required for convergence on symmetric
// instances: with probability exactly 1 in both directions, a batch local
// search can oscillate forever between two mirror states (every vertex
// swaps every iteration). The cap lets the per-vertex coins break the
// symmetry; production graphs are never perfectly symmetric, which is why
// the paper does not need to mention this.
const dampProb = 0.95

// binFor maps |gain| to a bin index; larger gains land in larger bins.
// Bin edges are powers of two above histBase, so floor(log2(x)) is read
// straight out of the float's biased exponent — this sits on the refiners'
// per-proposal hot path (DirHist.Add, ProbTable.ProbFor) where a real log
// call dominates the profile.
func binFor(absGain float64) int {
	if absGain < histBase {
		return 0
	}
	x := absGain / histBase // >= 1, always normal
	b := int(math.Float64bits(x)>>52&0x7FF) - 1023
	if b < 0 {
		b = 0
	}
	if b >= histBins {
		b = histBins - 1
	}
	return b
}

// DirHist is one direction's histogram of proposal gains: positive gains
// (improvements) and non-positive gains (stored by |gain|), with per-bin
// gain sums so matching can use the bin's mean gain instead of its edge.
type DirHist struct {
	posCount [histBins]int64
	posSum   [histBins]float64
	negCount [histBins]int64
	negSum   [histBins]float64
}

// Add records one proposal with the given gain.
func (h *DirHist) Add(gain float64) { h.fold(binCode(gain), gain, 1) }

// Remove retracts one previously Added proposal with the given gain — the
// exact inverse of Add (same bin, count down, gain subtracted), which lets a
// caller maintain a histogram across rounds from assert/retract deltas
// instead of resumming every proposal every round. Counts may legitimately
// go negative inside a delta histogram that will be merged into the
// maintained one.
func (h *DirHist) Remove(gain float64) { h.fold(binCode(gain), gain, -1) }

// binCode numbers gain's bin across both signs: positive gains first, then
// non-positive ones keyed by |gain|.
func binCode(gain float64) int32 {
	if gain > 0 {
		return int32(binFor(gain))
	}
	return int32(histBins + binFor(-gain))
}

// fold adds n = ±1 proposals of the given gain to bin code: the body of Add
// and Remove, for a caller that already knows the bin (n·gain is an exact
// negation, so the sums get Add's and Remove's bits).
func (h *DirHist) fold(code int32, gain float64, n int64) {
	if code < histBins {
		h.posCount[code] += n
		h.posSum[code] += float64(n) * gain
	} else {
		h.negCount[code-histBins] += n
		h.negSum[code-histBins] += float64(n) * gain
	}
}

// WireSize estimates the histogram's serialized size for aggregator byte
// accounting: 13 bytes (sign+bin byte, count int32, sum float64) per bin
// that carries any information.
func (h *DirHist) WireSize() int {
	n := 0
	for i := 0; i < histBins; i++ {
		if h.posCount[i] != 0 || h.posSum[i] != 0 {
			n++
		}
		if h.negCount[i] != 0 || h.negSum[i] != 0 {
			n++
		}
	}
	return 13 * n
}

// Merge folds another histogram into this one (the distributed plane's
// aggregators combine per-worker partials with it).
func (h *DirHist) Merge(o *DirHist) {
	for i := 0; i < histBins; i++ {
		h.posCount[i] += o.posCount[i]
		h.posSum[i] += o.posSum[i]
		h.negCount[i] += o.negCount[i]
		h.negSum[i] += o.negSum[i]
	}
}

// Total returns the number of proposals recorded.
func (h *DirHist) Total() int64 {
	var t int64
	for i := 0; i < histBins; i++ {
		t += h.posCount[i] + h.negCount[i]
	}
	return t
}

// orderedBin is a histogram bin in matching order (best gain first).
type orderedBin struct {
	positive bool
	idx      int     // bin index within its sign
	count    int64   // proposals in the bin
	meanGain float64 // mean gain of the bin's proposals
}

// orderedBins appends h's non-empty bins to dst best-first: positive bins
// from largest to smallest gain, then negative bins from closest-to-zero
// down.
func (h *DirHist) orderedBins(dst []orderedBin) []orderedBin {
	for b := histBins - 1; b >= 0; b-- {
		if h.posCount[b] > 0 {
			dst = append(dst, orderedBin{
				positive: true, idx: b, count: h.posCount[b],
				meanGain: h.posSum[b] / float64(h.posCount[b]),
			})
		}
	}
	for b := 0; b < histBins; b++ {
		if h.negCount[b] > 0 {
			dst = append(dst, orderedBin{
				positive: false, idx: b, count: h.negCount[b],
				meanGain: h.negSum[b] / float64(h.negCount[b]),
			})
		}
	}
	return dst
}

// ProbTable holds per-bin move probabilities for one direction.
type ProbTable struct {
	pos [histBins]float64
	neg [histBins]float64
}

// ProbFor returns the move probability for a proposal with the given gain.
func (p *ProbTable) ProbFor(gain float64) float64 {
	if gain > 0 {
		return p.pos[binFor(gain)]
	}
	return p.neg[binFor(-gain)]
}

// MatchHistograms runs Section 3.4's bin matching between two opposing
// directions. extraA and extraB are the additional unbalanced proposals each
// direction may accept beyond the pairing (the ε headroom of the receiving
// side, in vertices). It returns per-bin move probabilities for both
// directions.
//
// Matching walks both bin sequences best-first and pairs min(remaining)
// proposals while the pair's expected summed gain is positive; because both
// sequences are sorted by gain, the first non-positive pair ends matching.
// Fully matched bins get probability 1, the boundary bin a fractional
// probability. Afterwards, remaining positive-gain proposals are granted
// one-sided quota up to the extra allowance.
func MatchHistograms(a, b *DirHist, extraA, extraB int64) (ProbTable, ProbTable) {
	var ms matchScratch
	ms.match(a, b, extraA, extraB)
	var pa, pb ProbTable
	fillProbs(&pa, ms.binsA, ms.quotaA)
	fillProbs(&pb, ms.binsB, ms.quotaB)
	return pa, pb
}

// matchScratch holds MatchHistograms' working slices, so a caller that
// matches every bucket pair every iteration (the proposal plane) reuses them
// instead of allocating six slices per pair.
type matchScratch struct {
	binsA, binsB   []orderedBin
	quotaA, quotaB []int64
	remA, remB     []int64
}

// binCounts returns quota (zeroed) and rem (the bins' proposal counts) for one
// side, carved from the reused backing slices.
func binCounts(bins []orderedBin, quota, rem []int64) ([]int64, []int64) {
	quota, rem = quota[:0], rem[:0]
	for _, bin := range bins {
		quota = append(quota, 0)
		rem = append(rem, bin.count)
	}
	return quota, rem
}

// match is MatchHistograms over the scratch's reused slices, leaving each
// side's bins and accepted quotas in binsA/quotaA and binsB/quotaB.
func (ms *matchScratch) match(a, b *DirHist, extraA, extraB int64) {
	ms.binsA = a.orderedBins(ms.binsA[:0])
	ms.binsB = b.orderedBins(ms.binsB[:0])
	ms.quotaA, ms.remA = binCounts(ms.binsA, ms.quotaA, ms.remA)
	ms.quotaB, ms.remB = binCounts(ms.binsB, ms.quotaB, ms.remB)
	binsA, binsB := ms.binsA, ms.binsB
	quotaA, quotaB, remA, remB := ms.quotaA, ms.quotaB, ms.remA, ms.remB
	ai, bi := 0, 0
	for ai < len(binsA) && bi < len(binsB) {
		if remA[ai] == 0 {
			ai++
			continue
		}
		if remB[bi] == 0 {
			bi++
			continue
		}
		if binsA[ai].meanGain+binsB[bi].meanGain <= 0 {
			break
		}
		m := remA[ai]
		if remB[bi] < m {
			m = remB[bi]
		}
		quotaA[ai] += m
		quotaB[bi] += m
		remA[ai] -= m
		remB[bi] -= m
	}
	// One-sided extras within the ε headroom: best positive bins first.
	grantExtras(binsA, remA, quotaA, extraA)
	grantExtras(binsB, remB, quotaB, extraB)
}

func grantExtras(bins []orderedBin, rem, quota []int64, extra int64) {
	for i := range bins {
		if extra <= 0 {
			return
		}
		if !bins[i].positive || bins[i].meanGain <= 0 || rem[i] == 0 {
			continue
		}
		e := rem[i]
		if extra < e {
			e = extra
		}
		quota[i] += e
		rem[i] -= e
		extra -= e
	}
}

func fillProbs(p *ProbTable, bins []orderedBin, quota []int64) {
	for i, bin := range bins {
		if quota[i] == 0 {
			continue
		}
		if bin.positive {
			p.pos[bin.idx] = binProb(bin, quota[i])
		} else {
			p.neg[bin.idx] = binProb(bin, quota[i])
		}
	}
}

// binProb is the move probability of a bin with quota > 0 accepted proposals.
func binProb(bin orderedBin, quota int64) float64 {
	return min(float64(quota)/float64(bin.count), dampProb)
}
