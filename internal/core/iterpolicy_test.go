package core

import (
	"strings"
	"testing"
)

// applyNDDeltas applies one move batch the way refine applies batch 0:
// patched, or swept when the batch is too large to patch.
func (st *directState) applyNDDeltas(accepted []move) {
	mode, _ := st.IterPolicy.Next(0, int64(len(accepted)), st.g.NumData())
	st.applyBatch(accepted, mode)
}

// TestScheduleDecisions pins the one iteration policy the three refiners
// share: which mode applies each batch and when a run stops.
func TestScheduleDecisions(t *testing.T) {
	const n = 1000
	inProcess := Options{K: 4}.withDefaults().iterPolicy() // cap 20, 0.001, no forced sweep, 1/8
	directOpts := Options{K: 4, Direct: true}.withDefaults()
	direct := directOpts.iterPolicy() // cap 60
	directOpts.MinMoveFraction = 0    // what a Session's engine runs with
	session := directOpts.iterPolicy()
	cases := []struct {
		name   string
		p      IterPolicy
		iter   int
		moved  int64
		mode   BatchMode
		stop   bool
		reason string
	}{
		{"patch", inProcess, 0, 124, Patch, false, "124·8 < 1000"},
		{"sweep at 1/8", inProcess, 0, 125, Sweep, false, "125·8 >= 1000"},
		{"wire patch", NewIterPolicy(20, 0.001, 0, WireFallbackDiv), 3, 31, Patch, false, "31·32 < 1000"},
		{"wire sweep", NewIterPolicy(20, 0.001, 0, WireFallbackDiv), 3, 32, Sweep, false, "32·32 >= 1000"},
		{"period 0 never forces a sweep", NewIterPolicy(100, 0.001, 0, InProcessFallbackDiv), 63, 3, Patch, false, "0 forces nothing, batch 63 included"},
		{"forced every batch", NewIterPolicy(20, 0.001, 1, InProcessFallbackDiv), 0, 3, Sweep, false, ""},
		{"forced every 3rd, before", NewIterPolicy(20, 0.001, 3, InProcessFallbackDiv), 1, 3, Patch, false, ""},
		{"forced every 3rd, at", NewIterPolicy(20, 0.001, 3, InProcessFallbackDiv), 2, 3, Sweep, false, ""},
		{"nothing moved", session, 4, 0, Patch, true, "a zero batch stops even at fraction 0"},
		{"below the fraction", NewIterPolicy(20, 0.01, 0, InProcessFallbackDiv), 4, 9, Patch, true, "9/1000 < 0.01"},
		{"at the fraction", NewIterPolicy(20, 0.01, 0, InProcessFallbackDiv), 4, 10, Patch, false, "10/1000 is not below 0.01"},
		{"session moves on", session, 4, 1, Patch, false, "fraction 0 never stops a moving epoch"},
		{"SHP-2 cap", inProcess, 19, 300, Sweep, true, "iteration 20 of 20"},
		{"SHP-k cap", direct, 59, 3, Patch, true, "iteration 60 of 60"},
		{"SHP-k below its cap", direct, 19, 3, Patch, false, ""},
		{"cap with a sweep due", NewIterPolicy(3, 0.001, 3, InProcessFallbackDiv), 2, 3, Sweep, true, "the last batch still sweeps"},
	}
	for _, tc := range cases {
		mode, stop := tc.p.Next(tc.iter, tc.moved, n)
		if mode != tc.mode || stop != tc.stop {
			t.Errorf("%s (%s): Next(%d, %d, %d) = (%d, %v), want (%d, %v)",
				tc.name, tc.reason, tc.iter, tc.moved, n, mode, stop, tc.mode, tc.stop)
		}
	}
	if err := NewIterPolicy(-1, 0.001, 0, InProcessFallbackDiv).Validate(); err == nil {
		t.Error("a negative cap validated")
	}
	if err := inProcess.Validate(); err != nil {
		t.Errorf("the default policy does not validate: %v", err)
	}
}

// TestNegativeMaxItersRejected: a negative cap is an option error in both
// strategies, as it is in distshp.
func TestNegativeMaxItersRejected(t *testing.T) {
	g := randomBipartite(t, 3, 40, 60, 200)
	for _, direct := range []bool{false, true} {
		_, err := Partition(g, Options{K: 4, Direct: direct, MaxIters: -1})
		if err == nil || !strings.HasPrefix(err.Error(), "core: MaxIters") {
			t.Errorf("Direct %v, MaxIters -1: err %v, want a core: MaxIters error", direct, err)
		}
	}
}
