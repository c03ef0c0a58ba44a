package distshp

import (
	"sync/atomic"
	"testing"

	"shp/internal/pregel"
)

// TestCombinerPlaneAllocations is the allocation guard on the message plane
// under distshp's records, codec and per-worker fold: in a steady-state
// superstep where every vertex addresses one record to one of a few hubs,
// the engine may allocate a bounded handful of things per superstep
// (goroutines, barrier maps), nothing per record. Two arms: gains, which
// every vertex adds into its worker's gainFold and the PostSuperstep hook
// flushes, one record per (worker, hub), and bucket updates, which every
// vertex sends, so each Send appends to its hub's envelope and ships in a
// batch. Per-superstep allocation is the difference of a long and a short
// run, which cancels engine construction and first-use buffer growth.
func TestCombinerPlaneAllocations(t *testing.T) {
	const n, hubs, short, long, bound = 2000, 16, 4, 12, 64
	for _, tc := range []struct {
		name      string
		transport func() pregel.Transport
	}{{"memory", pregel.MemoryTransport}, {"tcp", pregel.TCPTransport}} {
		t.Run(tc.name, func(t *testing.T) {
			for _, arm := range []struct {
				name string
				fold bool
				msg  func(v pregel.VertexID) record
			}{
				{"fold", true, func(pregel.VertexID) record { return gainRecord(2, 1) }},
				{"batch", false, func(v pregel.VertexID) record { return moverRecord(int32(v), int32(v)%2) }},
			} {
				t.Run(arm.name, func(t *testing.T) {
					vertices := make([]*pregel.Vertex, n)
					for i := range vertices {
						vertices[i] = &pregel.Vertex{ID: pregel.VertexID(i)}
					}
					var received atomic.Int64 // workers run concurrently
					folds := []gainFold{{held: make([]record, n)}, {held: make([]record, n)}}
					allocs := func(steps int) float64 {
						return testing.AllocsPerRun(3, func() {
							eng, err := pregel.NewEngineOf(pregel.OptionsOf[record, workerAgg]{
								Workers:       2,
								MaxSupersteps: steps,
								Transport:     tc.transport(),
								Codecs:        wideWire,
								Compute: func(ctx *pregel.ContextOf[record, workerAgg], v *pregel.Vertex, msgs []record) {
									received.Add(int64(len(msgs)))
									if arm.fold {
										folds[ctx.Worker()].add(ctx, int32(v.ID%hubs), arm.msg(v.ID))
									} else {
										ctx.Send(v.ID%hubs, arm.msg(v.ID))
									}
								},
								PostSuperstep: func(ctx *pregel.ContextOf[record, workerAgg]) { folds[ctx.Worker()].flush(ctx) },
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
						t.Fatalf("%.0f allocations per superstep of %d records: want at most %d", perStep, n, bound)
					}
					t.Logf("%.0f allocations per superstep of %d records", perStep, n)
				})
			}
		})
	}
}

// TestPartitionAllocations bounds the objects one Partition call allocates
// on a fixed graph. Vertex states, registries, pair room, rows and the
// engine's vertices come from a handful of per-run slabs, so what is left is
// per superstep (the engine's barrier, the master's maps) and the delta
// scratch of queries that see movers: 0.9 objects per vertex here. One more
// allocation per query breaks the bound. Boxed states, a registry and a flag
// slice per query, and pair lists that outgrew their room at every level
// start took 3.3 per vertex.
func TestPartitionAllocations(t *testing.T) {
	g := randomBipartite(t, 9, 1500, 2500, 16000)
	opts := Options{K: 8, Workers: 2, ItersPerLevel: 6, Seed: 9}
	vertices := g.NumData() + g.NumQueries()
	objects := testing.AllocsPerRun(2, func() {
		if _, err := Partition(g, opts); err != nil {
			t.Fatal(err)
		}
	})
	if objects > float64(vertices) {
		t.Fatalf("%.0f objects per Partition call over %d vertices: want at most one per vertex", objects, vertices)
	}
	t.Logf("%.0f objects per Partition call over %d vertices", objects, vertices)
}
