package pregel

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"testing"
)

// workerPlaneRun exercises the worker-addressed plane. Until superstep
// haltAt every vertex v sends two worker records, 2v to worker (v+s)%W and
// 2v+1 to worker (5v+s)%W, and no vertex message. From haltAt on the
// vertices vote to halt, and only worker 0's hook keeps sending, one record
// to the last worker, until superstep quietUntil. Each hook logs what it was
// handed, and the run logs that it came before the worker's vertices.
type workerPlaneRun struct {
	n, workers        int
	haltAt, quietTill int
	eng               *Engine
	got               [][][]int64 // [worker][superstep]: the hook's records
	hooks             [][]int     // [worker][superstep]: hook calls
	t                 *testing.T
}

func newWorkerPlaneRun(t *testing.T, transport Transport) *workerPlaneRun {
	const n, workers, haltAt, quietTill, steps = 40, 3, 4, 8, 20
	r := &workerPlaneRun{n: n, workers: workers, haltAt: haltAt, quietTill: quietTill, t: t,
		got: make([][][]int64, workers), hooks: make([][]int, workers)}
	for w := range r.got {
		r.got[w], r.hooks[w] = make([][]int64, steps), make([]int, steps)
	}
	reg := NewRegistry()
	reg.Register(int64(0), Int64Codec{})
	vertices := make([]*Vertex, n)
	for i := range vertices {
		vertices[i] = &Vertex{ID: VertexID(i)}
	}
	eng, err := NewEngine(Options{
		Workers:       workers,
		MaxSupersteps: steps,
		Transport:     transport,
		Codecs:        reg,
		Compute: func(ctx *Context, v *Vertex, msgs []Message) {
			w, step := ctx.Worker(), ctx.Superstep()
			if r.hooks[w][step] != 1 {
				t.Errorf("vertex %d ran on worker %d before its hook at superstep %d", v.ID, w, step)
			}
			if len(msgs) != 0 {
				t.Errorf("vertex %d received %v", v.ID, msgs)
			}
			if step >= haltAt {
				ctx.VoteToHalt()
				return
			}
			ctx.SendWorker((int(v.ID)+step)%workers, int64(2*v.ID))
			ctx.SendWorker((5*int(v.ID)+step)%workers, int64(2*v.ID+1))
		},
		PreSuperstep: func(ctx *Context, msgs []Message) {
			w, step := ctx.Worker(), ctx.Superstep()
			r.hooks[w][step]++
			for _, m := range msgs {
				r.got[w][step] = append(r.got[w][step], m.(int64))
			}
			if w == 0 && step >= haltAt && step < quietTill {
				ctx.SendWorker(workers-1, int64(step))
			}
		},
	}, vertices)
	if err != nil {
		t.Fatal(err)
	}
	r.eng = eng
	return r
}

func (r *workerPlaneRun) run() *Stats {
	stats, err := r.eng.Run()
	if err != nil {
		r.t.Fatal(err)
	}
	return stats
}

// want returns what worker w's hook must be handed at superstep step: the
// records sent to it the superstep before, in (source worker, send order).
func (r *workerPlaneRun) want(w, step int) []int64 {
	var out []int64
	if step == 0 {
		return nil
	}
	s := step - 1
	if s < r.haltAt {
		for src := 0; src < r.workers; src++ {
			for v := 0; v < r.n; v++ {
				if r.eng.WorkerOf(VertexID(v)) != src {
					continue
				}
				if (v+s)%r.workers == w {
					out = append(out, int64(2*v))
				}
				if (5*v+s)%r.workers == w {
					out = append(out, int64(2*v+1))
				}
			}
		}
	} else if s < r.quietTill && w == r.workers-1 {
		out = append(out, int64(s))
	}
	return out
}

// TestWorkerPlane checks SendWorker and PreSuperstep on both transports:
// the hook runs once per worker per superstep, before the worker's first
// vertex, and is handed its records in (source worker, send order); a
// worker envelope counts once in MessagesSent; a pending worker group keeps
// Run going after every vertex halted but is no active vertex; and both
// transports deliver and count the same.
func TestWorkerPlane(t *testing.T) {
	var runs []*workerPlaneRun
	var stats []*Stats
	for _, transport := range []func() Transport{MemoryTransport, TCPTransport} {
		r := newWorkerPlaneRun(t, transport())
		s := r.run()
		runs, stats = append(runs, r), append(stats, s)
		if s.Supersteps != r.quietTill+1 {
			t.Fatalf("%d supersteps, want %d: the last worker group is consumed at superstep %d", s.Supersteps, r.quietTill+1, r.quietTill)
		}
		for step := 0; step < s.Supersteps; step++ {
			envelopes := int64(0)
			for w := 0; w < r.workers; w++ {
				if c := r.hooks[w][step]; c != 1 {
					t.Fatalf("worker %d's hook ran %d times at superstep %d", w, c, step)
				}
				if got, want := r.got[w][step], r.want(w, step); !slices.Equal(got, want) {
					t.Fatalf("worker %d at superstep %d was handed %v, want %v", w, step, got, want)
				}
			}
			// One envelope per (source worker, destination worker) pair
			// that carried a record.
			for src := 0; src < r.workers; src++ {
				for dst := 0; dst < r.workers; dst++ {
					for v := 0; v < r.n && step < r.haltAt; v++ {
						if r.eng.WorkerOf(VertexID(v)) == src && ((v+step)%r.workers == dst || (5*v+step)%r.workers == dst) {
							envelopes++
							break
						}
					}
				}
			}
			if step >= r.haltAt && step < r.quietTill {
				envelopes = 1
			}
			ss := s.PerSuperstep[step]
			if ss.MessagesSent != envelopes {
				t.Fatalf("superstep %d: %d envelopes, want %d", step, ss.MessagesSent, envelopes)
			}
			if active := ss.ActiveVertices; step <= r.haltAt && active != r.n || step > r.haltAt && active != 0 {
				t.Fatalf("superstep %d: %d active vertices", step, active)
			}
		}
	}
	for w := range runs[0].got {
		for step := range runs[0].got[w] {
			if !slices.Equal(runs[0].got[w][step], runs[1].got[w][step]) {
				t.Fatalf("worker %d, superstep %d: handed %v in memory, %v over TCP", w, step, runs[0].got[w][step], runs[1].got[w][step])
			}
		}
	}
	for i, m := range stats[0].PerSuperstep {
		if c := stats[1].PerSuperstep[i]; m.MessagesSent != c.MessagesSent || m.RemoteMessages != c.RemoteMessages || m.ActiveVertices != c.ActiveVertices {
			t.Fatalf("superstep %d: %+v in memory, %+v over TCP", i, m, c)
		}
	}
}

// TestDecodeRefusesIDsPastTheWorkerGroup checks the frame parser's address
// check: the worker group's id, NumVertices(), decodes on any worker, and
// any id above it is refused like a truncated frame.
func TestDecodeRefusesIDsPastTheWorkerGroup(t *testing.T) {
	r := newWorkerPlaneRun(t, nil)
	rec, err := r.eng.opts.Codecs.Append(nil, []Message{int64(7)})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range r.eng.workers {
		for dst, ok := range map[uint64]bool{uint64(r.n): true, uint64(r.n) + 1: false, uint64(r.n) + 100: false} {
			f := frame{payload: append(binary.AppendUvarint(nil, dst), rec...), count: 1}
			err := r.eng.decode(w, 0, f)
			if ok != (err == nil) {
				t.Fatalf("worker %d, envelope for id %d: err %v", w.id, dst, err)
			}
			if ok && (len(w.staged[0].envs) != 1 || w.staged[0].envs[0].dst != VertexID(r.n)) {
				t.Fatalf("worker %d staged %+v", w.id, w.staged[0].envs)
			}
		}
	}
}

// groupSnapshot builds the bytes of a one-worker snapshot over n vertices
// whose inbox holds one int64 record per id in ids, in that order.
func groupSnapshot(t *testing.T, n int, ids []uint64) []byte {
	reg := NewRegistry()
	reg.Register(int64(0), Int64Codec{})
	buf := append([]byte(snapshotMagic), snapshotVersion)
	buf = binary.AppendUvarint(buf, 0)
	buf = binary.AppendUvarint(buf, 1)
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = binary.AppendUvarint(buf, 0) // the program's part
	buf = append(buf, make([]byte, (n+7)/8)...)
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for i, id := range ids {
		buf = binary.AppendUvarint(buf, id)
		var err error
		if buf, err = reg.Append(buf, []Message{int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	buf = binary.AppendUvarint(buf, 0) // the master's blob
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// TestSnapshotHoldsTheWorkerGroup checks the snapshot's inbox section for
// the worker group: records under id NumVertices(), after the worker's own
// vertices, restore into its group, and any other placement of that id, or
// an id above it, is refused.
func TestSnapshotHoldsTheWorkerGroup(t *testing.T) {
	const n = 10
	reg := NewRegistry()
	reg.Register(int64(0), Int64Codec{})
	vertices := make([]*Vertex, n)
	for i := range vertices {
		vertices[i] = &Vertex{ID: VertexID(i)}
	}
	eng, err := NewEngine(Options{Workers: 1, MaxSupersteps: 1, Codecs: reg,
		Compute: func(*Context, *Vertex, []Message) {}}, vertices)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		ids   []uint64
		group []Message // nil: refused
	}{
		{[]uint64{n}, []Message{int64(1)}},
		{[]uint64{0, 3, n, n}, []Message{int64(3), int64(4)}},
		{[]uint64{n, 0}, nil},
		{[]uint64{3, n, 3}, nil},
		{[]uint64{n + 1}, nil},
		{[]uint64{0, n, n + 1}, nil},
	} {
		s, err := eng.decodeSnapshot(groupSnapshot(t, n, c.ids))
		if c.group == nil {
			if err == nil {
				t.Fatalf("ids %v: restored", c.ids)
			}
			continue
		}
		if err != nil {
			t.Fatalf("ids %v: %v", c.ids, err)
		}
		if got := s.inboxes[0].group(n); !slices.Equal(got, c.group) {
			t.Fatalf("ids %v: worker group %v, want %v", c.ids, got, c.group)
		}
	}
}

// withWorkerGroup adds the worker plane to a ring run: every vertex also
// sends a quarter of its value to a worker that moves with the superstep,
// and each hook sends what it was handed, halved, to one vertex.
func withWorkerGroup(r *ringRun, workers int) *ringRun {
	compute := r.opts.Compute
	r.opts.Compute = func(ctx *ContextOf[Message, float64], v *Vertex, msgs []Message) {
		compute(ctx, v, msgs)
		ctx.SendWorker((int(v.ID)+ctx.Superstep())%workers, r.vals[v.ID]*0.25)
	}
	r.opts.PreSuperstep = func(ctx *ContextOf[Message, float64], msgs []Message) {
		sum := 0.0
		for _, m := range msgs {
			sum += m.(float64)
		}
		if len(msgs) > 0 {
			ctx.Send(VertexID(3*ctx.Worker()+ctx.Superstep()%3), sum*0.5)
		}
	}
	return r
}

// TestWorkerGroupRecovery kills a worker across every superstep of a ring
// run that has worker records pending at every barrier, with a checkpoint
// every other superstep, on both transports: each replay restores the
// snapshot's worker groups and ends byte-identical to the undisturbed run.
func TestWorkerGroupRecovery(t *testing.T) {
	const n, workers, steps = 24, 3, 9
	base := withWorkerGroup(newRingRun(n, workers, steps, nil, nil, 0), workers)
	base.run(t)
	for _, tc := range []struct {
		name      string
		transport func() Transport
	}{{"memory", MemoryTransport}, {"tcp", TCPTransport}} {
		clean := withWorkerGroup(newRingRun(n, workers, steps, tc.transport(), nil, 0), workers)
		cleanStats := clean.run(t)
		requireSameStates(t, tc.name, base, clean)
		for kill := 1; kill < steps; kill++ {
			label := fmt.Sprintf("%s, kill@%d", tc.name, kill)
			r := withWorkerGroup(newRingRun(n, workers, steps, FaultyTransport(tc.transport(), FaultPlan{
				KillWorker: 1, KillStep: kill,
			}), NewMemoryCheckpointer(), 2), workers)
			stats := r.run(t)
			requireSameRun(t, label, clean, r, cleanStats, stats)
			if stats.Recoveries != 1 {
				t.Fatalf("%s: Recoveries = %d, want 1", label, stats.Recoveries)
			}
		}
	}
}
