package core

import (
	"math"
	"testing"
	"testing/quick"
)

// units converts a gain in objective units into gain units at unitHalf.
func units(gain float64) int64 { return int64(math.Round(gain / unitHalf)) }

func TestBinForMonotone(t *testing.T) {
	prev := -1
	for _, g := range []float64{0, 1e-13, 1e-12, 1e-9, 1e-6, 0.001, 0.5, 1, 100, 1e20} {
		b := binFor(g)
		if b < prev {
			t.Fatalf("binFor not monotone at %v: %d < %d", g, b, prev)
		}
		if b < 0 || b >= histBins {
			t.Fatalf("binFor(%v) = %d out of range", g, b)
		}
		prev = b
	}
}

func TestDirHistAddAndTotal(t *testing.T) {
	var h DirHist
	h.Add(units(0.5), unitHalf)
	h.Add(units(-0.25), unitHalf)
	h.Add(units(0), unitHalf)
	if h.Total() != 3 {
		t.Fatalf("total = %d, want 3", h.Total())
	}
	var pos, neg int64
	for i := 0; i < histBins; i++ {
		pos += h.posCount[i]
		neg += h.negCount[i]
	}
	if pos != 1 || neg != 2 {
		t.Fatalf("pos=%d neg=%d, want 1 and 2 (zero counts as non-positive)", pos, neg)
	}
}

func TestDirHistMerge(t *testing.T) {
	var a, b DirHist
	a.Add(units(1), unitHalf)
	b.Add(units(1), unitHalf)
	b.Add(units(-2), unitHalf)
	a.Merge(&b)
	if a.Total() != 3 {
		t.Fatalf("merged total = %d", a.Total())
	}
}

func TestDirHistRemoveInvertsAdd(t *testing.T) {
	gains := []float64{0.5, -0.25, 0, 1e-13, 100, -3}
	var h DirHist
	for _, g := range gains {
		h.Add(units(g), unitHalf)
	}
	if h.WireSize() == 0 {
		t.Fatal("populated histogram reports zero wire size")
	}
	for _, g := range gains {
		h.Remove(units(g), unitHalf)
	}
	if h.Total() != 0 {
		t.Fatalf("total after removing every add = %d, want 0", h.Total())
	}
	if got := h.WireSize(); got != 0 {
		t.Fatalf("empty histogram wire size = %d, want 0", got)
	}
	// Delta histograms legitimately go negative (a retract folded before the
	// matching assert's aggregator); a later Add must restore them exactly.
	h.Remove(units(0.5), unitHalf)
	h.Add(units(0.5), unitHalf)
	if h.Total() != 0 || h.WireSize() != 0 {
		t.Fatalf("retract-then-assert left residue: total %d, wire %d", h.Total(), h.WireSize())
	}
}

func TestDirHistWireSizePerBin(t *testing.T) {
	var h DirHist
	h.Add(units(0.5), unitHalf)
	one := h.WireSize()
	if one <= 0 {
		t.Fatal("single-bin histogram reports non-positive wire size")
	}
	h.Add(units(0.5), unitHalf) // same bin: no new bin on the wire
	if got := h.WireSize(); got != one {
		t.Fatalf("second entry in same bin changed wire size: %d vs %d", got, one)
	}
	h.Add(units(-2), unitHalf) // second direction/bin
	if got := h.WireSize(); got != 2*one {
		t.Fatalf("two occupied bins cost %d, want %d", got, 2*one)
	}
}

func TestOrderedBinsBestFirst(t *testing.T) {
	var h DirHist
	h.Add(units(100), unitHalf)
	h.Add(units(0.001), unitHalf)
	h.Add(units(-0.5), unitHalf)
	h.Add(units(-200), unitHalf)
	bins := h.orderedBins(nil)
	if len(bins) != 4 {
		t.Fatalf("got %d bins", len(bins))
	}
	for i := 1; i < len(bins); i++ {
		if bins[i].meanGain > bins[i-1].meanGain {
			t.Fatalf("bins not in descending gain order: %v then %v", bins[i-1].meanGain, bins[i].meanGain)
		}
	}
}

func TestMatchHistogramsBalancedSwap(t *testing.T) {
	// Equal positive proposals both directions: all should move (up to the
	// anti-oscillation damping cap).
	var a, b DirHist
	for i := 0; i < 10; i++ {
		a.Add(units(1.0), unitHalf)
		b.Add(units(2.0), unitHalf)
	}
	pa, pb := MatchHistograms(&a, &b, 0, 0)
	if p := pa.ProbFor(units(1.0), unitHalf); p != dampProb {
		t.Fatalf("direction A probability = %v, want %v", p, dampProb)
	}
	if p := pb.ProbFor(units(2.0), unitHalf); p != dampProb {
		t.Fatalf("direction B probability = %v, want %v", p, dampProb)
	}
}

func TestMatchHistogramsOneSidedNoExtras(t *testing.T) {
	// Positive proposals only on one side, no headroom: nothing moves.
	var a, b DirHist
	for i := 0; i < 10; i++ {
		a.Add(units(1.0), unitHalf)
	}
	pa, _ := MatchHistograms(&a, &b, 0, 0)
	if p := pa.ProbFor(units(1.0), unitHalf); p != 0 {
		t.Fatalf("one-sided with no extras moved with probability %v", p)
	}
}

func TestMatchHistogramsExtras(t *testing.T) {
	// One-sided positive proposals with headroom 5 of 10: probability 0.5.
	var a, b DirHist
	for i := 0; i < 10; i++ {
		a.Add(units(1.0), unitHalf)
	}
	pa, _ := MatchHistograms(&a, &b, 5, 0)
	if p := pa.ProbFor(units(1.0), unitHalf); math.Abs(p-0.5) > 1e-12 {
		t.Fatalf("extras probability = %v, want 0.5", p)
	}
}

func TestMatchHistogramsPositiveNegativePairing(t *testing.T) {
	// A has large positive gains, B only slightly negative ones: the summed
	// gain is positive, so the pair should swap (Section 3.4's "frees up
	// additional movement").
	var a, b DirHist
	for i := 0; i < 4; i++ {
		a.Add(units(10.0), unitHalf)
		b.Add(units(-0.5), unitHalf)
	}
	pa, pb := MatchHistograms(&a, &b, 0, 0)
	if p := pa.ProbFor(units(10.0), unitHalf); p != dampProb {
		t.Fatalf("positive side probability = %v, want %v", p, dampProb)
	}
	if p := pb.ProbFor(units(-0.5), unitHalf); p != dampProb {
		t.Fatalf("negative side probability = %v, want %v", p, dampProb)
	}
}

func TestMatchHistogramsRejectsNetNegative(t *testing.T) {
	// Summed gain negative: no pairing.
	var a, b DirHist
	a.Add(units(0.5), unitHalf)
	b.Add(units(-10.0), unitHalf)
	pa, pb := MatchHistograms(&a, &b, 0, 0)
	if pa.ProbFor(units(0.5), unitHalf) != 0 || pb.ProbFor(units(-10.0), unitHalf) != 0 {
		t.Fatal("net-negative pair was allowed to swap")
	}
}

func TestMatchHistogramsPartialBin(t *testing.T) {
	// 10 proposals one way, 4 the other: boundary bin gets 4/10.
	var a, b DirHist
	for i := 0; i < 10; i++ {
		a.Add(units(1.0), unitHalf)
	}
	for i := 0; i < 4; i++ {
		b.Add(units(1.0), unitHalf)
	}
	pa, pb := MatchHistograms(&a, &b, 0, 0)
	if p := pa.ProbFor(units(1.0), unitHalf); math.Abs(p-0.4) > 1e-12 {
		t.Fatalf("partial bin probability = %v, want 0.4", p)
	}
	if p := pb.ProbFor(units(1.0), unitHalf); p != dampProb {
		t.Fatalf("smaller side probability = %v, want %v", p, dampProb)
	}
}

func TestMatchHistogramsExpectedFlowBalanced(t *testing.T) {
	// Property: without extras, expected flow A->B equals expected flow
	// B->A (the paper's balance-in-expectation invariant), up to the small
	// asymmetry introduced by the damping cap (which trims at most a
	// (1 - dampProb) fraction from fully matched bins).
	err := quick.Check(func(seed uint64, na, nb uint8) bool {
		var a, b DirHist
		r := newSeq(seed)
		for i := 0; i < int(na%50); i++ {
			a.Add(units(r.next()*4-1), unitHalf) // gains in [-1, 3)
		}
		for i := 0; i < int(nb%50); i++ {
			b.Add(units(r.next()*4-1), unitHalf)
		}
		pa, pb := MatchHistograms(&a, &b, 0, 0)
		flow := func(h *DirHist, p *ProbTable) float64 {
			f := 0.0
			for i := 0; i < histBins; i++ {
				f += float64(h.posCount[i]) * p.pos[i]
				f += float64(h.negCount[i]) * p.neg[i]
			}
			return f
		}
		fa, fb := flow(&a, &pa), flow(&b, &pb)
		tol := (1 - dampProb) * math.Max(fa, fb) / dampProb
		return math.Abs(fa-fb) <= tol+1e-9
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProbTableZeroGain(t *testing.T) {
	var p ProbTable
	p.neg[0] = 0.25
	if got := p.ProbFor(units(0), unitHalf); got != 0.25 {
		t.Fatalf("zero gain should use negative bin 0: %v", got)
	}
}

// seq is a tiny deterministic float sequence for property tests.
type seq struct{ state uint64 }

func newSeq(seed uint64) *seq { return &seq{state: seed} }

func (s *seq) next() float64 {
	s.state = s.state*6364136223846793005 + 1442695040888963407
	return float64(s.state>>11) / (1 << 53)
}
