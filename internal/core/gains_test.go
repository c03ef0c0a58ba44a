package core

import (
	"math"
	"testing"
)

func TestPFanoutTables(t *testing.T) {
	tb := NewPFanoutTables(0.5, 1, 10)
	if tb.T[0] != 1 {
		t.Fatal("T[0] must be 1")
	}
	for i := 1; i <= 10; i++ {
		want := math.Pow(0.5, float64(i))
		if math.Abs(tb.T[i]-want) > 1e-12 {
			t.Fatalf("T[%d] = %v, want %v", i, tb.T[i], want)
		}
		wantC := 1 - want
		if math.Abs(tb.C[i]-wantC) > 1e-12 {
			t.Fatalf("C[%d] = %v, want %v", i, tb.C[i], wantC)
		}
	}
	if tb.mult != 0.5 {
		t.Fatalf("mult = %v", tb.mult)
	}
}

func TestPFanoutTablesLookahead(t *testing.T) {
	// Section 3.4: with lookahead t the contribution is t·(1−(1−p/t)^r).
	const p, tt = 0.5, 4
	tb := NewPFanoutTables(p, tt, 8)
	for r := 0; r <= 8; r++ {
		want := float64(tt) * (1 - math.Pow(1-p/float64(tt), float64(r)))
		if math.Abs(tb.C[r]-want) > 1e-12 {
			t.Fatalf("C[%d] = %v, want %v", r, tb.C[r], want)
		}
	}
	// t·p' = p: the gain multiplier stays p.
	if tb.mult != p {
		t.Fatalf("mult = %v, want %v", tb.mult, p)
	}
}

func TestFanoutTablesAreP1(t *testing.T) {
	tb := NewPFanoutTables(1, 1, 5)
	if tb.T[0] != 1 {
		t.Fatal("T[0] must be 1")
	}
	for i := 1; i <= 5; i++ {
		if tb.T[i] != 0 {
			t.Fatalf("T[%d] = %v, want 0 for p=1", i, tb.T[i])
		}
		if tb.C[i] != 1 {
			t.Fatalf("C[%d] = %v, want 1 for p=1", i, tb.C[i])
		}
	}
}

func TestCliqueNetTables(t *testing.T) {
	tb := NewCliqueNetTables(6)
	for i := 0; i <= 6; i++ {
		if tb.T[i] != -float64(i) {
			t.Fatalf("T[%d] = %v", i, tb.T[i])
		}
		want := -float64(i) * float64(i-1) / 2
		if tb.C[i] != want {
			t.Fatalf("C[%d] = %v, want %v", i, tb.C[i], want)
		}
	}
}

func TestTablesForDispatch(t *testing.T) {
	opts := Options{K: 2, P: 0.5}.withDefaults()
	tb := tablesFor(opts, 4, 5)
	if math.Abs(tb.T[1]-(1-0.5/4)) > 1e-12 {
		t.Fatal("lookahead not applied")
	}
	tb = tablesFor(opts, 1, 5)
	if math.Abs(tb.T[1]-0.5) > 1e-12 {
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
