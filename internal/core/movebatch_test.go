package core

import (
	"slices"
	"testing"

	"shp/internal/hypergraph"
)

// commitBatch runs commit on a hand-made decided list over one hyperedge of
// the given data weights.
func commitBatch[B int8 | int32](t *testing.T, weights []int32, gains []int64, list []int32,
	bucket []B, to func(int32) B, capW []float64) ([]move, []int64) {
	t.Helper()
	all := make([]int32, len(weights))
	for i := range all {
		all[i] = int32(i)
	}
	g, err := hypergraph.NewBuilder(1, len(weights)).AddHyperedge(0, all...).SetDataWeights(weights).Build()
	if err != nil {
		t.Fatal(err)
	}
	load := make([]int64, len(capW))
	for v, c := range bucket {
		load[c] += int64(weights[v])
	}
	mb := &moveBatch{decided: make([]bool, len(weights)), list: list}
	for _, v := range list {
		mb.decided[v] = true
	}
	accepted, _ := commit(mb, g, gains, bucket, to, load, capW)
	if slices.Contains(mb.decided, true) {
		t.Fatalf("decided flags left set: %v", mb.decided)
	}
	return accepted, load
}

// TestCommitSkipsBucketWithNothingToUndo: bucket 0 starts the batch over its
// cap and receives nothing, so the trim cannot bring it down; bucket 1,
// above it, went over on two arrivals and must still be trimmed.
func TestCommitSkipsBucketWithNothingToUndo(t *testing.T) {
	bucket := []int32{0, 0, 0, 1, 2, 2}
	target := []int32{0, 0, 0, 1, 1, 1}
	gains := []int64{0, 0, 0, 0, 2, 1}
	accepted, load := commitBatch(t, []int32{1, 1, 1, 1, 1, 1}, gains, []int32{4, 5},
		bucket, func(v int32) int32 { return target[v] }, []float64{2, 2, 2})
	if want := []move{{4, 2}}; !slices.Equal(accepted, want) {
		t.Fatalf("accepted %v, want %v (the lower-gain arrival 5 undone)", accepted, want)
	}
	if want := []int32{0, 0, 0, 1, 1, 2}; !slices.Equal(bucket, want) {
		t.Fatalf("buckets %v, want %v", bucket, want)
	}
	if want := []int64{3, 2, 1}; !slices.Equal(load, want) {
		t.Fatalf("loads %v, want %v: bucket 0 keeps its start, 1 and 2 fit", load, want)
	}
}

// TestCommitRepeatsUntilCapsHold: on weighted sides, undoing side 1's heavy
// arrival pushes side 0 over its cap, which side 0's already-visited trim
// must see again.
func TestCommitRepeatsUntilCapsHold(t *testing.T) {
	side := []int8{0, 1, 1, 1}
	gains := []int64{0, 1, 2, 0}
	capW := []float64{5, 5}
	accepted, load := commitBatch(t, []int32{4, 1, 1, 3}, gains, []int32{0, 1, 2},
		side, func(v int32) int8 { return 1 - side[v] }, capW)
	if want := []move{{2, 1}}; !slices.Equal(accepted, want) {
		t.Fatalf("accepted %v, want %v", accepted, want)
	}
	if want := []int8{0, 1, 0, 1}; !slices.Equal(side, want) {
		t.Fatalf("sides %v, want %v", side, want)
	}
	for s, w := range load {
		if float64(w) > capW[s] {
			t.Fatalf("side %d weighs %d, over its cap %v", s, w, capW[s])
		}
	}
}
