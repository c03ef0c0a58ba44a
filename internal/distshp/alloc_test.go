package distshp

import (
	"sync/atomic"
	"testing"

	"shp/internal/pregel"
)

// TestCombinerPlaneAllocations is the allocation guard on the message plane
// under distshp's combiner: in a steady-state superstep where every vertex
// sends one gain to one of a few hubs — so nearly every Send is a fold — the
// engine and the combiner together may allocate the message the sender
// builds and nothing per fold. Per-superstep allocation is the difference of
// a long and a short run, which cancels engine construction and first-use
// buffer growth.
func TestCombinerPlaneAllocations(t *testing.T) {
	const n, hubs, short, long, slack = 2000, 16, 4, 12, 64
	for _, tc := range []struct {
		name      string
		transport func() pregel.Transport
	}{{"memory", pregel.MemoryTransport}, {"tcp", pregel.TCPTransport}} {
		t.Run(tc.name, func(t *testing.T) {
			vertices := make([]*pregel.Vertex, n)
			for i := range vertices {
				vertices[i] = &pregel.Vertex{ID: pregel.VertexID(i)}
			}
			var received atomic.Int64 // workers run concurrently
			allocs := func(steps int) float64 {
				return testing.AllocsPerRun(3, func() {
					eng, err := pregel.NewEngine(pregel.Options{
						Workers:       2,
						MaxSupersteps: steps,
						Transport:     tc.transport(),
						Codecs:        newRegistry(),
						Combiner:      combine,
						Compute: func(ctx *pregel.Context, v *pregel.Vertex, msgs []pregel.Message) {
							received.Add(int64(len(msgs)))
							ctx.Send(v.ID%hubs, &msgGain{Cur: 1, Oth: 0.5})
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
			if perStep > n+slack {
				t.Fatalf("%.0f allocations per superstep of %d sends: want at most one per Send plus %d", perStep, n, slack)
			}
			t.Logf("%.0f allocations per superstep of %d sends", perStep, n)
		})
	}
}
