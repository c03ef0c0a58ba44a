package pregel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"shp/internal/rng"
)

// trail is the recording accumulator of the delivery-order property test's
// program-side fold: folding appends, so the order a worker folded its
// vertices' sends in is readable off the record it ships.
type trail struct{ ids []int64 }

// trailFold is one worker's fold: a trail per destination, listed in
// first-touch order, which the PostSuperstep hook flushes.
type trailFold struct {
	at    map[VertexID]*trail
	order []VertexID
}

func (f *trailFold) add(dst VertexID, id int64) {
	tr := f.at[dst]
	if tr == nil {
		tr = &trail{}
		f.at[dst] = tr
		f.order = append(f.order, dst)
	}
	tr.ids = append(tr.ids, id)
}

func (f *trailFold) flush(ctx *Context) {
	for _, dst := range f.order {
		ctx.Send(dst, f.at[dst])
	}
	clear(f.at)
	f.order = f.order[:0]
}

type trailCodec struct{}

func (trailCodec) Append(buf []byte, m any) ([]byte, error) {
	ids := m.(*trail).ids
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		buf = binary.AppendVarint(buf, id)
	}
	return buf, nil
}

func (trailCodec) Decode(data []byte) (any, int, error) {
	n, used := binary.Uvarint(data)
	if used <= 0 || n > uint64(len(data)) {
		return nil, 0, fmt.Errorf("bad trail count")
	}
	t := &trail{ids: make([]int64, 0, n)}
	for i := uint64(0); i < n; i++ {
		id, w := binary.Varint(data[used:])
		if w <= 0 {
			return nil, 0, fmt.Errorf("truncated trail")
		}
		used += w
		t.ids = append(t.ids, id)
	}
	return t, used, nil
}

func (c trailCodec) Size(m any) int {
	buf, _ := c.Append(nil, m)
	return len(buf)
}

func trailRegistry() *Registry {
	reg := NewRegistry()
	reg.Register(int64(0), Int64Codec{})
	reg.Register(&trail{}, trailCodec{})
	return reg
}

// TestDeliveryOrderMatchesStableSort drives random traffic through the
// engine and checks every vertex receives, each superstep, exactly the
// sequence a stable sort by destination over the superstep's sends — listed
// by source worker, then in send order — assigns it, in one envelope per
// (source worker, destination). The engine groups arrivals with a counting
// scatter and no sort; the sort lives here, as the reference. With combine
// set the program folds instead, the way distshp does: each worker's
// vertices append to a trail per destination, the PostSuperstep hook ships
// the trails, and a vertex receives at most one per source worker, whose
// concatenation must read the same sequence.
func TestDeliveryOrderMatchesStableSort(t *testing.T) {
	const n, steps = 67, 5
	type send struct {
		dst     VertexID
		payload int64
	}
	// sends is what vertex v sends in superstep s: up to five messages to
	// random vertices, a few of them favourites so destinations collide
	// within a worker and across workers.
	sends := func(seed uint64, v VertexID, s int) []send {
		r := rng.NewStream(seed, rng.Mix(uint64(v), uint64(s)))
		out := make([]send, r.Intn(6))
		for k := range out {
			dst := VertexID(r.Intn(n))
			if r.Intn(3) == 0 {
				dst = VertexID(r.Intn(4))
			}
			out[k] = send{dst: dst, payload: int64(s)<<40 | int64(v)<<8 | int64(k)}
		}
		return out
	}
	for _, workers := range []int{1, 2, 3, 5} {
		for _, combine := range []bool{false, true} {
			for _, tcp := range []bool{false, true} {
				name := fmt.Sprintf("workers=%d/combine=%v/tcp=%v", workers, combine, tcp)
				t.Run(name, func(t *testing.T) {
					seed := rng.Mix(uint64(workers), 77)
					got := make([][][]int64, steps+1) // [superstep][vertex] payloads received
					for s := range got {
						got[s] = make([][]int64, n)
					}
					folds := make([]trailFold, workers)
					for w := range folds {
						folds[w].at = map[VertexID]*trail{}
					}
					vs := make([]*Vertex, n)
					for i := range vs {
						vs[n-1-i] = &Vertex{ID: VertexID(i)} // input order must not matter
					}
					opts := Options{
						Workers:       workers,
						MaxSupersteps: steps + 1,
						Codecs:        trailRegistry(),
						Compute: func(ctx *Context, v *Vertex, msgs []Message) {
							s := ctx.Superstep()
							if combine && len(msgs) > workers {
								t.Errorf("superstep %d vertex %d: %d messages from %d folding workers", s, v.ID, len(msgs), workers)
							}
							for _, m := range msgs {
								if tr, ok := m.(*trail); ok {
									got[s][v.ID] = append(got[s][v.ID], tr.ids...)
								} else {
									got[s][v.ID] = append(got[s][v.ID], m.(int64))
								}
							}
							if s < steps {
								for _, sd := range sends(seed, v.ID, s) {
									if combine {
										folds[ctx.Worker()].add(sd.dst, sd.payload)
									} else {
										ctx.Send(sd.dst, sd.payload)
									}
								}
							}
						},
					}
					if combine {
						opts.PostSuperstep = func(ctx *Context) { folds[ctx.Worker()].flush(ctx) }
					}
					if tcp {
						opts.Transport = TCPTransport()
					}
					eng, err := NewEngine(opts, vs)
					if err != nil {
						t.Fatal(err)
					}
					stats, err := eng.Run()
					if err != nil {
						t.Fatal(err)
					}
					for s := 0; s < steps; s++ {
						// Every send of superstep s in (source worker, send
						// order): workers in order, each running its vertices
						// id-ascending. Each worker ships one envelope per
						// destination it addressed.
						var all []send
						envelopes := 0
						for w := 0; w < workers; w++ {
							addressed := map[VertexID]bool{}
							for v := VertexID(0); v < n; v++ {
								if eng.WorkerOf(v) == w {
									for _, sd := range sends(seed, v, s) {
										all = append(all, sd)
										if !addressed[sd.dst] {
											addressed[sd.dst] = true
											envelopes++
										}
									}
								}
							}
						}
						if got := stats.PerSuperstep[s].MessagesSent; got != int64(envelopes) {
							t.Fatalf("superstep %d sent %d envelopes, want one per (worker, destination): %d", s, got, envelopes)
						}
						sort.SliceStable(all, func(i, j int) bool { return all[i].dst < all[j].dst })
						want := make([][]int64, n)
						for _, sd := range all {
							want[sd.dst] = append(want[sd.dst], sd.payload)
						}
						for v := range want {
							if !slices.Equal(got[s+1][v], want[v]) {
								t.Fatalf("superstep %d vertex %d received %x, stable sort says %x", s+1, v, got[s+1][v], want[v])
							}
						}
					}
				})
			}
		}
	}
}

// TestNewEngineRequiresDenseIDs: the placement table is indexed by id, so
// ids must be exactly 0..n-1.
func TestNewEngineRequiresDenseIDs(t *testing.T) {
	for _, c := range []struct {
		name string
		ids  []VertexID
		ok   bool
	}{
		{"dense, any order", []VertexID{2, 0, 1}, true},
		{"negative", []VertexID{0, -1, 1}, false},
		{"past the end", []VertexID{0, 1, 3}, false},
		{"far past the end", []VertexID{0, 1, math.MaxInt64}, false},
		{"duplicate", []VertexID{0, 1, 1}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			vs := make([]*Vertex, len(c.ids))
			for i, id := range c.ids {
				vs[i] = &Vertex{ID: id}
			}
			_, err := NewEngine(Options{Compute: func(*Context, *Vertex, []Message) {}, MaxSupersteps: 1}, vs)
			if (err == nil) != c.ok {
				t.Fatalf("NewEngine(ids %v) error = %v, want ok=%v", c.ids, err, c.ok)
			}
		})
	}
}

// TestSendToAbsentVertexFailsSuperstep: a message to an id no vertex has
// must not be counted, shipped and dropped at delivery. It fails the
// superstep with a *ComputeError wrapping ErrNoSuchVertex, and a fresh
// engine over the same vertices still runs.
func TestSendToAbsentVertexFailsSuperstep(t *testing.T) {
	const n = 12
	for _, c := range []struct {
		name string
		dst  VertexID
		tcp  bool
	}{
		{"one past the end", n, false},
		{"negative", -1, false},
		{"far away", 1 << 40, false},
		{"one past the end, tcp", n, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			vs := buildChain(n)
			stray := c.dst
			opts := Options{
				Workers:       3,
				MaxSupersteps: 4,
				Codecs:        floatRegistry(),
				Compute: func(ctx *Context, v *Vertex, msgs []Message) {
					ctx.Send((v.ID+1)%n, 1.0)
					if ctx.Superstep() == 1 && v.ID == 5 {
						ctx.Send(stray, 1.0)
					}
				},
			}
			if c.tcp {
				opts.Transport = TCPTransport()
			}
			eng, err := NewEngine(opts, vs)
			if err != nil {
				t.Fatal(err)
			}
			_, err = eng.Run()
			var ce *ComputeError
			if !errors.As(err, &ce) || !errors.Is(err, ErrNoSuchVertex) {
				t.Fatalf("Run returned %v, want a *ComputeError wrapping ErrNoSuchVertex", err)
			}
			if ce.Superstep != 1 || ce.Worker != eng.WorkerOf(5) {
				t.Fatalf("ComputeError{Worker: %d, Superstep: %d}, want {%d, 1}", ce.Worker, ce.Superstep, eng.WorkerOf(5))
			}
			stray = 0 // the same program, now addressing a vertex that exists
			if c.tcp {
				opts.Transport = TCPTransport()
			}
			eng, err = NewEngine(opts, vs)
			if err != nil {
				t.Fatal(err)
			}
			stats, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			if stats.Supersteps != 4 {
				t.Fatalf("rerun took %d supersteps, want 4", stats.Supersteps)
			}
		})
	}
}

// misaddress wraps a transport and, once, just before the exchange of the
// given superstep, re-addresses the first envelope of worker 0's frame for
// worker 1 — what a confused or corrupted peer would put on the wire.
type misaddress struct {
	Transport
	step int
	to   VertexID
	done bool
}

func (m *misaddress) exchange(step int, out, in [][]frame) (int64, error) {
	if step == m.step && !m.done {
		m.done = true
		f := &out[0][1]
		_, n := binary.Uvarint(f.payload)
		f.payload = append(binary.AppendUvarint(nil, uint64(m.to)), f.payload[n:]...)
	}
	return m.Transport.exchange(step, out, in)
}

// TestReadFrameRejectsMisaddressedEnvelope: a frame that decodes but names a
// vertex the receiving worker does not own is as undecodable as a truncated
// one. The receiver blames the source, and with a checkpointer the run rolls
// back and finishes bit-identical to an undisturbed one; without one, Run
// returns the *WorkerFailure.
func TestReadFrameRejectsMisaddressedEnvelope(t *testing.T) {
	const n, workers, steps, bad = 24, 3, 10, 5
	base := newRingRun(n, workers, steps, TCPTransport(), nil, 0)
	baseStats := base.run(t)
	probe, err := NewEngineOf(base.opts, base.vertices)
	if err != nil {
		t.Fatal(err)
	}
	var elsewhere VertexID // a vertex worker 2 owns
	for probe.WorkerOf(elsewhere) != 2 {
		elsewhere++
	}
	for _, c := range []struct {
		name string
		to   VertexID
	}{
		{"another worker's vertex", elsewhere},
		{"out of range", n + 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newRingRun(n, workers, steps, &misaddress{Transport: TCPTransport(), step: bad, to: c.to}, NewMemoryCheckpointer(), 2)
			stats := r.run(t)
			if stats.Recoveries != 1 {
				t.Fatalf("Recoveries = %d, want 1", stats.Recoveries)
			}
			requireSameRun(t, c.name, base, r, baseStats, stats)

			r = newRingRun(n, workers, steps, &misaddress{Transport: TCPTransport(), step: bad, to: c.to}, nil, 0)
			eng, err := NewEngineOf(r.opts, r.vertices)
			if err != nil {
				t.Fatal(err)
			}
			_, err = eng.Run()
			var wf *WorkerFailure
			if !errors.As(err, &wf) || wf.Worker != 0 || wf.Superstep != bad {
				t.Fatalf("Run returned %v, want a *WorkerFailure blaming worker 0 at superstep %d", err, bad)
			}
		})
	}
}

// BenchmarkMessagePlane times the engine's message path alone: a ring (every
// vertex forwards one message, one record per envelope) and an all-to-few
// fan-in (every vertex sends to one of 64 hubs, so nearly every Send joins
// an envelope and a worker ships 64 batches), over both transports.
func BenchmarkMessagePlane(b *testing.B) {
	const n, steps, hubs = 20000, 10, 64
	// Payloads start past the small integers the runtime boxes without
	// allocating, so allocs/op counts the first-message boxing real message
	// types pay.
	const payloadBase = 1 << 10
	type program struct {
		name string
		dst  func(v VertexID) VertexID
	}
	for _, p := range []program{
		{"ring", func(v VertexID) VertexID { return (v + 1) % n }},
		{"fanin", func(v VertexID) VertexID { return v % hubs }},
	} {
		for _, tcp := range []bool{false, true} {
			name := fmt.Sprintf("%s/tcp=%v", p.name, tcp)
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				var msgs int64
				for i := 0; i < b.N; i++ {
					vs := make([]*Vertex, n)
					for i := range vs {
						vs[i] = &Vertex{ID: VertexID(i), State: int64(0)}
					}
					codecs := NewRegistry()
					codecs.Register(int64(0), Int64Codec{})
					opts := Options{
						Workers:       2,
						MaxSupersteps: steps + 1,
						Codecs:        codecs,
						Compute: func(ctx *Context, v *Vertex, messages []Message) {
							sum := v.State.(int64)
							for _, m := range messages {
								sum += m.(int64)
							}
							v.State = sum
							if ctx.Superstep() < steps {
								ctx.Send(p.dst(v.ID), int64(v.ID)+payloadBase)
							} else {
								ctx.VoteToHalt()
							}
						},
					}
					if tcp {
						opts.Transport = TCPTransport()
					}
					eng, err := NewEngine(opts, vs)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := eng.Run(); err != nil {
						b.Fatal(err)
					}
					var got int64
					for _, v := range vs {
						got += v.State.(int64)
					}
					if want := int64(steps) * (n*(n-1)/2 + n*payloadBase); got != want {
						b.Fatalf("payloads received sum to %d, want %d", got, want)
					}
					msgs += n * steps
				}
				b.ReportMetric(float64(msgs)/b.Elapsed().Seconds(), "msgs/s")
			})
		}
	}
}
