package distshp_test

import (
	"strings"
	"testing"

	"shp"
)

// TestDistRejectsInvalidOptions checks that PartitionDistributed refuses a
// negative Workers, a negative Epsilon and a P outside (0, 1] with an
// option error before it builds any table, worded like core's: -2 workers
// panicked in a make, P = 1.5 ran, and P = -0.5 failed as a gain range
// error. The bounds themselves, and the zero values that mean the
// defaults, run.
func TestDistRejectsInvalidOptions(t *testing.T) {
	g, err := shp.FromEdges(4, 6, []shp.Edge{{Q: 0, D: 0}, {Q: 0, D: 1}, {Q: 1, D: 1}, {Q: 1, D: 2}, {Q: 2, D: 3}, {Q: 2, D: 4}, {Q: 3, D: 5}, {Q: 3, D: 0}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		opts shp.DistributedOptions
		want string // error prefix; "" means the run succeeds
	}{
		{"Workers -2", shp.DistributedOptions{K: 2, Workers: -2}, "distshp: Workers must be >= 0"},
		{"Workers -1", shp.DistributedOptions{K: 4, Workers: -1}, "distshp: Workers must be >= 0"},
		{"Epsilon -0.1", shp.DistributedOptions{K: 2, Epsilon: -0.1}, "distshp: Epsilon must be >= 0"},
		{"P 1.5", shp.DistributedOptions{K: 2, P: 1.5}, "distshp: P must be in (0, 1]"},
		{"P -0.5", shp.DistributedOptions{K: 2, P: -0.5}, "distshp: P must be in (0, 1]"},
		{"P 1", shp.DistributedOptions{K: 2, P: 1, Workers: 1}, ""},
		{"defaults", shp.DistributedOptions{K: 2}, ""},
	} {
		_, err := shp.PartitionDistributed(g, c.opts)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.HasPrefix(err.Error(), c.want)):
			t.Errorf("%s: err %v, want %q", c.name, err, c.want)
		}
	}
}
