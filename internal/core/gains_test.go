package core

import (
	"math"
	"testing"
)

// value converts table entry u into objective units.
func (g GainTables) value(u int64) float64 { return g.objective(float64(u)) }

func TestPFanoutTables(t *testing.T) {
	tb := NewPFanoutTables(0.5, 1, 10)
	if tb.value(tb.T[0]) != 1 {
		t.Fatal("T[0] must be 1")
	}
	for i := 1; i <= 10; i++ {
		want := math.Pow(0.5, float64(i))
		if got := tb.value(tb.T[i]); math.Abs(got-want) > 1e-12 {
			t.Fatalf("T[%d] = %v, want %v", i, got, want)
		}
		wantC := 1 - want
		if got := tb.value(tb.C[i]); math.Abs(got-wantC) > 1e-12 {
			t.Fatalf("C[%d] = %v, want %v", i, got, wantC)
		}
	}
	if tb.unit != math.Ldexp(0.5, -gainGridBits) {
		t.Fatalf("unit = %v", tb.unit)
	}
}

func TestPFanoutTablesLookahead(t *testing.T) {
	// Section 3.4: with lookahead t the contribution is t·(1−(1−p/t)^r).
	const p, tt = 0.5, 4
	tb := NewPFanoutTables(p, tt, 8)
	for r := 0; r <= 8; r++ {
		want := float64(tt) * (1 - math.Pow(1-p/float64(tt), float64(r)))
		if got := tb.value(tb.C[r]); math.Abs(got-want) > 1e-12 {
			t.Fatalf("C[%d] = %v, want %v", r, got, want)
		}
	}
	// t·p' = p: the gain multiplier stays p.
	if tb.unit != math.Ldexp(p, -gainGridBits) {
		t.Fatalf("unit = %v, want p·2^-%d", tb.unit, gainGridBits)
	}
}

func TestFanoutTablesAreP1(t *testing.T) {
	tb := NewPFanoutTables(1, 1, 5)
	if tb.value(tb.T[0]) != 1 {
		t.Fatal("T[0] must be 1")
	}
	for i := 1; i <= 5; i++ {
		if tb.T[i] != 0 {
			t.Fatalf("T[%d] = %v, want 0 for p=1", i, tb.T[i])
		}
		if tb.value(tb.C[i]) != 1 {
			t.Fatalf("C[%d] = %v, want 1 for p=1", i, tb.C[i])
		}
	}
}

func TestCliqueNetTables(t *testing.T) {
	tb := NewCliqueNetTables(6)
	for i := 0; i <= 6; i++ {
		if tb.T[i] != -int64(i) {
			t.Fatalf("T[%d] = %v", i, tb.T[i])
		}
		want := -int64(i) * int64(i-1) / 2
		if tb.C[i] != want {
			t.Fatalf("C[%d] = %v, want %v", i, tb.C[i], want)
		}
	}
}

func TestTablesForDispatch(t *testing.T) {
	opts := Options{K: 2, P: 0.5}.withDefaults()
	tb := tablesFor(opts, 4, 5)
	if math.Abs(tb.value(tb.T[1])-(1-0.5/4)) > 1e-12 {
		t.Fatal("lookahead not applied")
	}
	tb = tablesFor(opts, 1, 5)
	if math.Abs(tb.value(tb.T[1])-0.5) > 1e-12 {
		t.Fatal("t = 1 must give the plain p-fanout table")
	}
	opts = Options{K: 2, Objective: ObjCliqueNet}.withDefaults()
	tb = tablesFor(opts, 4, 5)
	if tb.T[2] != -2 {
		t.Fatal("clique-net dispatch failed")
	}
	opts = Options{K: 2, Objective: ObjFanout}.withDefaults()
	tb = tablesFor(opts, 4, 5)
	if tb.T[1] != 0 {
		t.Fatal("fanout dispatch failed")
	}
}

func TestObjectiveStrings(t *testing.T) {
	if ObjPFanout.String() != "p-fanout" || ObjFanout.String() != "fanout" || ObjCliqueNet.String() != "clique-net" {
		t.Fatal("objective names wrong")
	}
	if Objective(99).String() == "" {
		t.Fatal("unknown values must still render")
	}
}

// TestGainTermsWithinSpan is the premise of checkRange's bound: every table
// value and every difference T[a] − T[b] of two values is at most span in
// magnitude, for both table families, with T[a] and T[b] from tables of any
// two lookaheads (SHP-2's two sides), so the one accumulator Σ_q w_q·(T[a] −
// T[b]) stays within wdeg·span and ErrGainRange's limit covers it.
func TestGainTermsWithinSpan(t *testing.T) {
	const maxN = 300
	families := [][]GainTables{{NewCliqueNetTables(maxN)}}
	for _, p := range []float64{1, 0.9, 0.5, 0.3, 0.01} {
		var fam []GainTables
		for _, split := range []int{1, 2, 3, 64, 4096} {
			fam = append(fam, NewPFanoutTables(p, split, maxN))
		}
		families = append(families, fam)
	}
	for fi, fam := range families {
		span := fam[0].span()
		for ti, tb := range fam {
			if s := tb.span(); s != span {
				t.Fatalf("family %d: table %d's span %v differs from table 0's %v", fi, ti, s, span)
			}
		}
		for _, x := range fam {
			for _, y := range fam {
				for a, ta := range x.T {
					if math.Abs(float64(ta)) > span {
						t.Fatalf("family %d: |T[%d]| = %d exceeds span %v", fi, a, ta, span)
					}
					for b, tb := range y.T {
						if d := math.Abs(float64(ta - tb)); d > span {
							t.Fatalf("family %d: |T[%d] − T[%d]| = %v exceeds span %v", fi, a, b, d, span)
						}
					}
				}
			}
		}
	}
}
