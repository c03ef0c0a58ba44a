package distshp

import (
	"sync/atomic"
	"testing"

	"shp/internal/pregel"
)

// TestCombinerPlaneAllocations is the allocation guard on the message plane
// under distshp's records, codec and combiner: in a steady-state superstep
// where every vertex sends one record to one of a few hubs, the engine may
// allocate a bounded handful of things per superstep (goroutines, barrier
// maps), nothing per Send. Two arms: gains, where nearly every Send is a
// fold, and bucket updates, which the combiner declines, so every Send
// appends to its hub's envelope and ships in a batch. Per-superstep
// allocation is the difference of a long and a short run, which cancels
// engine construction and first-use buffer growth.
func TestCombinerPlaneAllocations(t *testing.T) {
	const n, hubs, short, long, bound = 2000, 16, 4, 12, 64
	for _, tc := range []struct {
		name      string
		transport func() pregel.Transport
	}{{"memory", pregel.MemoryTransport}, {"tcp", pregel.TCPTransport}} {
		t.Run(tc.name, func(t *testing.T) {
			for _, arm := range []struct {
				name string
				msg  func(v pregel.VertexID) record
			}{
				{"fold", func(pregel.VertexID) record { return gainRecord(1, 0.5) }},
				{"batch", func(v pregel.VertexID) record { return bucketRecord(int32(v), int32(v)%2) }},
			} {
				t.Run(arm.name, func(t *testing.T) {
					vertices := make([]*pregel.Vertex, n)
					for i := range vertices {
						vertices[i] = &pregel.Vertex{ID: pregel.VertexID(i)}
					}
					var received atomic.Int64 // workers run concurrently
					allocs := func(steps int) float64 {
						return testing.AllocsPerRun(3, func() {
							eng, err := pregel.NewEngineOf(pregel.OptionsOf[record, workerAgg]{
								Workers:       2,
								MaxSupersteps: steps,
								Transport:     tc.transport(),
								Codecs:        wideWire,
								Combiner:      combine,
								Compute: func(ctx *pregel.ContextOf[record, workerAgg], v *pregel.Vertex, msgs []record) {
									received.Add(int64(len(msgs)))
									ctx.Send(v.ID%hubs, arm.msg(v.ID))
								},
							}, vertices)
							if err != nil {
								t.Fatal(err)
							}
							if _, err := eng.Run(); err != nil {
								t.Fatal(err)
							}
						})
					}
					perStep := (allocs(long) - allocs(short)) / (long - short)
					if received.Load() == 0 {
						t.Fatal("no message was delivered")
					}
					if perStep > bound {
						t.Fatalf("%.0f allocations per superstep of %d sends: want at most %d", perStep, n, bound)
					}
					t.Logf("%.0f allocations per superstep of %d sends", perStep, n)
				})
			}
		})
	}
}
