package pregel

import (
	"math"
	"testing"
)

// buildChain returns vertices 0..n-1; state holds a float64 distance.
func buildChain(n int) []*Vertex {
	vs := make([]*Vertex, n)
	for i := range vs {
		vs[i] = &Vertex{ID: VertexID(i), State: math.Inf(1)}
	}
	return vs
}

// TestSSSPChain runs single-source shortest paths on a path graph: the
// canonical Pregel example exercises messaging, halting, and reactivation.
func TestSSSPChain(t *testing.T) {
	const n = 50
	for _, workers := range []int{1, 3, 8} {
		vs := buildChain(n)
		eng, err := NewEngine(Options{
			Workers:       workers,
			MaxSupersteps: n + 2,
			Compute: func(ctx *Context, v *Vertex, msgs []Message) {
				dist := v.State.(float64)
				if ctx.Superstep() == 0 && v.ID == 0 {
					dist = 0
				}
				for _, m := range msgs {
					if d := m.(float64); d < dist {
						dist = d
					}
				}
				if dist < v.State.(float64) || (ctx.Superstep() == 0 && v.ID == 0) {
					v.State = dist
					if int(v.ID) < n-1 {
						ctx.Send(v.ID+1, dist+1)
					}
				}
				ctx.VoteToHalt()
			},
		}, vs)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if got := eng.Vertex(VertexID(i)).State.(float64); got != float64(i) {
				t.Fatalf("workers=%d: dist[%d] = %v, want %d", workers, i, got, i)
			}
		}
		if stats.Supersteps < n {
			t.Fatalf("workers=%d: finished in %d supersteps, chain needs >= %d", workers, stats.Supersteps, n)
		}
	}
}

func TestHaltsWhenAllInactive(t *testing.T) {
	vs := buildChain(10)
	eng, err := NewEngine(Options{
		MaxSupersteps: 100,
		Compute: func(ctx *Context, v *Vertex, msgs []Message) {
			ctx.VoteToHalt()
		},
	}, vs)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Supersteps != 1 {
		t.Fatalf("expected 1 superstep, got %d", stats.Supersteps)
	}
}

func TestMasterHalt(t *testing.T) {
	vs := buildChain(4)
	eng, err := NewEngine(Options{
		MaxSupersteps: 100,
		Compute: func(ctx *Context, v *Vertex, msgs []Message) {
			// Keep everyone busy forever.
			ctx.Send(v.ID, 1.0)
		},
		Master: func(step int, _ []*struct{}) bool { return step == 4 },
	}, vs)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Supersteps != 5 {
		t.Fatalf("master halt at step 4 should give 5 supersteps, got %d", stats.Supersteps)
	}
}

// TestAggregatorSumAcrossWorkers: every vertex folds its id into its
// worker's part, the master sums the parts, and the vertices read the sum it
// broadcasts — the master's own state — in the next superstep.
func TestAggregatorSumAcrossWorkers(t *testing.T) {
	vs := buildChain(100)
	var total float64
	eng, err := NewEngineOf(OptionsOf[Message, float64]{
		Workers:       7,
		MaxSupersteps: 2,
		Compute: func(ctx *ContextOf[Message, float64], v *Vertex, msgs []Message) {
			if ctx.Superstep() == 0 {
				*ctx.Aggregate() += float64(v.ID)
				return // stay active to observe the value next superstep
			}
			v.State = total
			ctx.VoteToHalt()
		},
		Master: func(step int, parts []*float64) bool {
			if len(parts) != 7 {
				t.Errorf("master got %d parts, want one per worker", len(parts))
			}
			for _, p := range parts {
				total += *p
			}
			return false
		},
	}, vs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := float64(99 * 100 / 2)
	for i := 0; i < 100; i++ {
		if got := eng.Vertex(VertexID(i)).State.(float64); got != want {
			t.Fatalf("vertex %d read aggregate %v, want %v", i, got, want)
		}
	}
}

// TestMasterSetsAggregator: a value the master writes between supersteps is
// what every vertex reads in the next one.
func TestMasterSetsAggregator(t *testing.T) {
	vs := buildChain(3)
	var broadcast float64
	eng, err := NewEngine(Options{
		MaxSupersteps: 3,
		Compute: func(ctx *Context, v *Vertex, msgs []Message) {
			if ctx.Superstep() == 1 {
				v.State = broadcast
				ctx.VoteToHalt()
			}
		},
		Master: func(step int, _ []*struct{}) bool {
			if step == 0 {
				broadcast = 42.0
			}
			return false
		},
	}, vs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if got := eng.Vertex(VertexID(i)).State; got != 42.0 {
			t.Fatalf("vertex %d got broadcast %v", i, got)
		}
	}
}

func TestMessageAccounting(t *testing.T) {
	vs := buildChain(10)
	eng, err := NewEngine(Options{
		Workers:       2,
		MaxSupersteps: 2,
		Codecs:        floatRegistry(),
		Compute: func(ctx *Context, v *Vertex, msgs []Message) {
			if ctx.Superstep() == 0 {
				ctx.Send((v.ID+1)%10, 1.0)
			}
			ctx.VoteToHalt()
		},
	}, vs)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalMessages != 10 {
		t.Fatalf("TotalMessages = %d, want 10", stats.TotalMessages)
	}
	// Each envelope is a one-byte destination id, a one-byte codec id and
	// eight bytes of float64.
	if stats.TotalBytes != 100 {
		t.Fatalf("TotalBytes = %d, want 100", stats.TotalBytes)
	}
	if stats.RemoteMessages == 0 || stats.RemoteMessages > 10 {
		t.Fatalf("RemoteMessages = %d, want within (0, 10]", stats.RemoteMessages)
	}
	if len(stats.PerSuperstep) != stats.Supersteps {
		t.Fatal("per-superstep stats length mismatch")
	}
}

// TestActiveVerticesCountsVertices: every vertex sends vertex 0 three
// messages and halts, so the next superstep wakes vertex 0 alone. A vertex
// counts once however many messages wait for it.
func TestActiveVerticesCountsVertices(t *testing.T) {
	const n = 20
	eng, err := NewEngine(Options{
		Workers:       2,
		MaxSupersteps: 4,
		Compute: func(ctx *Context, v *Vertex, msgs []Message) {
			if ctx.Superstep() == 0 {
				for i := 0; i < 3; i++ {
					ctx.Send(0, 1.0)
				}
			}
			ctx.VoteToHalt()
		},
	}, buildChain(n))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for _, ss := range stats.PerSuperstep {
		got = append(got, ss.ActiveVertices)
		if ss.MaxWorkerActive > ss.ActiveVertices {
			t.Fatalf("superstep %d: busiest worker has %d active of %d", ss.Superstep, ss.MaxWorkerActive, ss.ActiveVertices)
		}
	}
	if len(got) != 2 || got[0] != n || got[1] != 1 {
		t.Fatalf("ActiveVertices per superstep = %v, want [%d 1]", got, n)
	}
}

func TestSingleWorkerNoRemoteTraffic(t *testing.T) {
	vs := buildChain(10)
	eng, err := NewEngine(Options{
		Workers:       1,
		MaxSupersteps: 2,
		Compute: func(ctx *Context, v *Vertex, msgs []Message) {
			if ctx.Superstep() == 0 {
				ctx.Send((v.ID+1)%10, 1.0)
			}
			ctx.VoteToHalt()
		},
	}, vs)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.RemoteMessages != 0 {
		t.Fatalf("single worker should have no remote messages, got %d", stats.RemoteMessages)
	}
}

func TestConfigErrors(t *testing.T) {
	if _, err := NewEngine(Options{MaxSupersteps: 1}, nil); err == nil {
		t.Fatal("missing Compute should error")
	}
	if _, err := NewEngine(Options{Compute: func(*Context, *Vertex, []Message) {}}, nil); err == nil {
		t.Fatal("missing MaxSupersteps should error")
	}
	dup := []*Vertex{{ID: 1}, {ID: 1}}
	if _, err := NewEngine(Options{Compute: func(*Context, *Vertex, []Message) {}, MaxSupersteps: 1}, dup); err == nil {
		t.Fatal("duplicate ids should error")
	}
	checkpointed := Options{Compute: func(*Context, *Vertex, []Message) {}, MaxSupersteps: 1,
		Checkpointer: NewMemoryCheckpointer()}
	if _, err := NewEngine(checkpointed, []*Vertex{{ID: 0}}); err == nil {
		t.Fatal("a Checkpointer without a Program should error")
	}
	checkpointed.Program = &ringRun{}
	if _, err := NewEngine(checkpointed, []*Vertex{{ID: 0, State: 1.0}}); err == nil {
		t.Fatal("a State no checkpoint holds should error when checkpointing")
	}
	if _, err := NewEngine(checkpointed, []*Vertex{{ID: 0}}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	// A computation whose result depends on received message order would be
	// nondeterministic; engine delivery is sorted by destination and the
	// compute below is order-insensitive (max), so results must agree.
	run := func(workers int) []float64 {
		vs := buildChain(30)
		for i := range vs {
			vs[i].State = float64(i)
		}
		eng, err := NewEngine(Options{
			Workers:       workers,
			MaxSupersteps: 10,
			Compute: func(ctx *Context, v *Vertex, msgs []Message) {
				val := v.State.(float64)
				for _, m := range msgs {
					if m.(float64) > val {
						val = m.(float64)
					}
				}
				if val != v.State.(float64) || ctx.Superstep() == 0 {
					v.State = val
					ctx.Send((v.ID+1)%30, val)
					ctx.Send((v.ID+7)%30, val)
				}
				ctx.VoteToHalt()
			},
		}, vs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		out := make([]float64, 30)
		for i := range out {
			out[i] = eng.Vertex(VertexID(i)).State.(float64)
		}
		return out
	}
	a, b := run(1), run(5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("worker count changed result at vertex %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestCountAggregator: an int64 aggregate counts the vertices each superstep
// runs, across workers. Every superstep's parts start at zero, so the master
// reads the same count each time rather than a running total.
func TestCountAggregator(t *testing.T) {
	const n, workers, steps = 40, 3, 4
	var counts []int64
	eng, err := NewEngineOf(OptionsOf[Message, int64]{
		Workers:       workers,
		MaxSupersteps: steps,
		Compute: func(ctx *ContextOf[Message, int64], v *Vertex, msgs []Message) {
			*ctx.Aggregate() += 1
		},
		Master: func(step int, parts []*int64) bool {
			var c, nonzero int64
			for _, p := range parts {
				c += *p
				if *p != 0 {
					nonzero++
				}
			}
			if nonzero < 2 {
				t.Errorf("superstep %d: %d workers counted, want the count spread across workers", step, nonzero)
			}
			counts = append(counts, c)
			return false
		},
	}, buildChain(n))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(counts) != steps {
		t.Fatalf("master ran %d times, want %d", len(counts), steps)
	}
	for step, c := range counts {
		if c != n {
			t.Fatalf("superstep %d counted %d vertices, want %d", step, c, n)
		}
	}
}
