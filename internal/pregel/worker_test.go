package pregel

import (
	"encoding/binary"
	"fmt"
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
				if HashWorker(VertexID(v), r.workers) != src {
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
						if HashWorker(VertexID(v), r.workers) == src && ((v+step)%r.workers == dst || (5*v+step)%r.workers == dst) {
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

// withWorkerGroup adds the worker plane to a ring run: on every fourth
// superstep every vertex also sends a quarter of its value to a worker that
// moves with the superstep, and each hook sends what it was handed, halved,
// to one vertex. With the ring's even supersteps, records are pending at
// three barriers out of four, and the fourth (a multiple of 4) is quiescent.
func withWorkerGroup(r *ringRun, workers int) *ringRun {
	compute := r.opts.Compute
	r.opts.Compute = func(ctx *ContextOf[Message, float64], v *Vertex, msgs []Message) {
		compute(ctx, v, msgs)
		if ctx.Superstep()%4 == 0 {
			ctx.SendWorker((int(v.ID)+ctx.Superstep())%workers, r.vals[v.ID]*0.25)
		}
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
// run with the worker plane, whose worker records, hook sends or ring
// records are pending at three barriers out of four, with a checkpoint due
// every other superstep (taken at 0, 4 and 8), on both transports: each
// replay reruns the hooks and ends byte-identical to the undisturbed run.
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

// workerStepRun is a program with no vertices: each worker keeps one value,
// and its hook is the whole superstep. It adds what it was handed to its
// value and folds the value into the aggregate; on every third superstep it
// also sends its value to the next worker and its index to a worker that
// moves with the superstep. So records are pending only at the barriers
// after those supersteps, and every other barrier is quiescent. The master
// adds the workers' parts into a running total and halts after superstep
// haltAt, or never when haltAt is negative.
type workerStepRun struct {
	vals  []int64 // by worker
	total int64   // the master's
	hooks [][]int // [worker][superstep]: hook calls
	// wire[w] is what worker w's envelopes cost at one header byte each,
	// the id 0 of an engine with no vertices, beside their codec bytes.
	wire []int64
	opts OptionsOf[Message, int64]
	t    *testing.T
}

func newWorkerStepRun(t *testing.T, workers, haltAt, steps int, transport Transport, cp Checkpointer) *workerStepRun {
	r := &workerStepRun{vals: make([]int64, workers), hooks: make([][]int, workers), wire: make([]int64, workers), t: t}
	for w := range r.vals {
		r.vals[w] = int64(w + 1)
		r.hooks[w] = make([]int, steps)
	}
	reg := NewRegistry()
	reg.Register(int64(0), Int64Codec{})
	r.opts = OptionsOf[Message, int64]{
		Workers:         workers,
		MaxSupersteps:   steps,
		Transport:       transport,
		Codecs:          reg,
		Checkpointer:    cp,
		CheckpointEvery: 2,
		PreSuperstep: func(ctx *ContextOf[Message, int64], msgs []Message) {
			w, step := ctx.Worker(), ctx.Superstep()
			r.hooks[w][step]++
			if n := ctx.NumVertices(); n != 0 {
				t.Errorf("a hook saw %d vertices", n)
			}
			for _, m := range msgs {
				r.vals[w] += m.(int64)
			}
			*ctx.Aggregate() += r.vals[w]
			if step%3 != 0 {
				return
			}
			next, moving := (w+1)%workers, (w+step)%workers
			ctx.SendWorker(next, r.vals[w])
			ctx.SendWorker(moving, int64(w))
			envs := [][]Message{{r.vals[w], int64(w)}}
			if next != moving {
				envs = [][]Message{{r.vals[w]}, {int64(w)}}
			}
			for _, recs := range envs {
				n, err := reg.Size(recs)
				if err != nil {
					t.Error(err)
				}
				r.wire[w] += int64(1 + n)
			}
		},
		Master: func(step int, parts []*int64) bool {
			for _, p := range parts {
				r.total += *p
			}
			return step == haltAt
		},
	}
	if cp != nil {
		r.opts.Program = r
	}
	return r
}

// AppendWorker encodes worker w's value.
func (r *workerStepRun) AppendWorker(buf []byte, w int) []byte {
	return binary.AppendVarint(buf, r.vals[w])
}

// AppendMaster encodes the master's total.
func (r *workerStepRun) AppendMaster(buf []byte) []byte { return binary.AppendVarint(buf, r.total) }

func (r *workerStepRun) Restore(parts [][]byte, master []byte) error {
	vals := make([]int64, len(parts))
	for w, part := range parts {
		x, n := binary.Varint(part)
		if n <= 0 || n != len(part) {
			return fmt.Errorf("worker %d: bad part %x", w, part)
		}
		vals[w] = x
	}
	total, n := binary.Varint(master)
	if n <= 0 || n != len(master) {
		return fmt.Errorf("bad master blob %x", master)
	}
	copy(r.vals, vals)
	r.total = total
	// The replay reruns supersteps whose hooks already ran.
	for w := range r.hooks {
		clear(r.hooks[w])
	}
	return nil
}

func (r *workerStepRun) run() *Stats {
	eng, err := NewEngineOf(r.opts, nil)
	if err != nil {
		r.t.Fatal(err)
	}
	stats, err := eng.Run()
	if err != nil {
		r.t.Fatal(err)
	}
	return stats
}

// TestWorkerPlaneWithoutVertices checks the contract of an engine with no
// vertices on both transports: it runs through quiescent barriers until its
// master halts it, or until MaxSupersteps when the master never does; each
// hook runs once per worker per superstep and no vertex is ever active; its
// worker groups ride under id 0, one header byte per envelope on the memory
// transport's count; both transports agree; a worker killed at any
// superstep recovers from a checkpoint to the undisturbed run's values and
// stats; and NewEngineOf refuses such an engine without a Master, which
// nothing else would halt.
func TestWorkerPlaneWithoutVertices(t *testing.T) {
	const workers, haltAt, steps = 3, 10, 30
	var runs []*workerStepRun
	var stats []*Stats
	for _, transport := range []func() Transport{MemoryTransport, TCPTransport} {
		r := newWorkerStepRun(t, workers, haltAt, steps, transport(), nil)
		s := r.run()
		runs, stats = append(runs, r), append(stats, s)
		if s.Supersteps != haltAt+1 {
			t.Fatalf("%d supersteps, want %d: the master halts after superstep %d", s.Supersteps, haltAt+1, haltAt)
		}
		for step, ss := range s.PerSuperstep {
			for w := range r.hooks {
				if c := r.hooks[w][step]; c != 1 {
					t.Fatalf("worker %d's hook ran %d times at superstep %d", w, c, step)
				}
			}
			if ss.ActiveVertices != 0 || ss.MaxWorkerActive != 0 {
				t.Fatalf("superstep %d: %d active vertices", step, ss.ActiveVertices)
			}
			// Only every third superstep sends, so the barriers after the
			// others are quiescent.
			if sends := step%3 == 0; sends != (ss.MessagesSent > 0) {
				t.Fatalf("superstep %d sent %d envelopes", step, ss.MessagesSent)
			}
		}
	}
	if !slices.Equal(runs[0].vals, runs[1].vals) || runs[0].total != runs[1].total {
		t.Fatalf("values differ across transports: %v/%d in memory, %v/%d over TCP",
			runs[0].vals, runs[0].total, runs[1].vals, runs[1].total)
	}
	for i, m := range stats[0].PerSuperstep {
		if c := stats[1].PerSuperstep[i]; m.MessagesSent != c.MessagesSent || m.RemoteMessages != c.RemoteMessages {
			t.Fatalf("superstep %d: %+v in memory, %+v over TCP", i, m, c)
		}
	}
	var wire int64
	for _, n := range runs[0].wire {
		wire += n
	}
	if got := stats[0].TotalBytes; got != wire {
		t.Fatalf("memory BytesSent %d, want %d from one-byte id-0 headers and the codec", got, wire)
	}

	never := newWorkerStepRun(t, workers, -1, 9, nil, nil)
	if s := never.run(); s.Supersteps != 9 {
		t.Fatalf("a master that never halts ran %d supersteps, want MaxSupersteps 9", s.Supersteps)
	}

	for _, transport := range []func() Transport{MemoryTransport, TCPTransport} {
		clean := newWorkerStepRun(t, workers, haltAt, steps, transport(), NewMemoryCheckpointer())
		cs := clean.run()
		for kill := 1; kill <= haltAt; kill++ {
			hurt := newWorkerStepRun(t, workers, haltAt, steps,
				FaultyTransport(transport(), FaultPlan{KillWorker: 1, KillStep: kill}), NewMemoryCheckpointer())
			hs := hurt.run()
			if hs.Recoveries != 1 {
				t.Fatalf("kill at %d: %d recoveries, want 1", kill, hs.Recoveries)
			}
			if !slices.Equal(clean.vals, hurt.vals) || clean.total != hurt.total {
				t.Fatalf("kill at %d: values %v/%d, want %v/%d", kill, hurt.vals, hurt.total, clean.vals, clean.total)
			}
			if !slices.Equal(cs.PerSuperstep, hs.PerSuperstep) {
				t.Fatalf("kill at %d: per-superstep stats differ:\n%+v\n%+v", kill, cs.PerSuperstep, hs.PerSuperstep)
			}
		}
	}

	headless := newWorkerStepRun(t, workers, haltAt, steps, nil, nil)
	headless.opts.Master = nil
	if _, err := NewEngineOf(headless.opts, nil); err == nil {
		t.Fatal("an engine with no vertices and no Master built")
	}
}
