package pregel

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
)

// workerSumRun is a per-worker summing program on the worker hook: every
// vertex adds what it received to its value and, in the first two supersteps
// of every four, sends the value to its own worker (SendWorker), and the next
// superstep's hook sums what its worker's vertices sent and Sends the sum,
// tagged with the worker, to vertex 0 and to one vertex of its own choosing.
// So values, as worker records, or the hook's sums are pending at every
// barrier but the multiples of 4, which are quiescent. It logs what the hook
// must guarantee: one call per worker per superstep, before any of the
// worker's vertices.
type workerSumRun struct {
	n        int
	vals     []int64   // by vertex id
	hooks    [][]int   // [worker][superstep]: hook calls
	received [][]int64 // [superstep]: what vertex 0 received
	opts     Options
	vertices []*Vertex
	t        *testing.T
}

// sumTag is the tag room of a hook's sum: sum%1000*sumTag + worker.
const sumTag = 8

func newWorkerSumRun(t *testing.T, n, workers, steps int, transport Transport, cp Checkpointer) *workerSumRun {
	r := &workerSumRun{n: n, vals: make([]int64, n), hooks: make([][]int, workers),
		received: make([][]int64, steps), vertices: make([]*Vertex, n), t: t}
	for i := range r.vertices {
		r.vertices[i] = &Vertex{ID: VertexID(i)}
		r.vals[i] = int64(i + 1)
	}
	for w := range r.hooks {
		r.hooks[w] = make([]int, steps)
	}
	reg := NewRegistry()
	reg.Register(int64(0), Int64Codec{})
	r.opts = Options{
		Workers:         workers,
		MaxSupersteps:   steps,
		Transport:       transport,
		Codecs:          reg,
		Checkpointer:    cp,
		CheckpointEvery: 3,
		Compute: func(ctx *Context, v *Vertex, msgs []Message) {
			w, step := ctx.Worker(), ctx.Superstep()
			if r.hooks[w][step] != 1 {
				t.Errorf("vertex %d ran on worker %d before its hook at superstep %d", v.ID, w, step)
			}
			for _, m := range msgs {
				r.vals[v.ID] += m.(int64)
				if v.ID == 0 {
					r.received[step] = append(r.received[step], m.(int64))
				}
			}
			if step%4 < 2 {
				ctx.SendWorker(w, r.vals[v.ID])
			}
		},
		PreSuperstep: func(ctx *Context, msgs []Message) {
			w, step := ctx.Worker(), ctx.Superstep()
			r.hooks[w][step]++
			if len(msgs) == 0 {
				return
			}
			sum := int64(0)
			for _, m := range msgs {
				sum += m.(int64)
			}
			// Every worker's sum lands on vertex 0, and on one vertex of its own choosing.
			ctx.Send(0, sum%1000*sumTag+int64(w))
			ctx.Send(VertexID((step*7+w)%n), sum%1000*sumTag+int64(w))
		},
	}
	if cp != nil {
		r.opts.Program = r
	}
	return r
}

// AppendWorker encodes worker w's vertices' values.
func (r *workerSumRun) AppendWorker(buf []byte, w int) []byte {
	for _, id := range hostedBy(r.n, r.opts.Workers, w) {
		buf = binary.AppendVarint(buf, r.vals[id])
	}
	return buf
}

func (r *workerSumRun) AppendMaster(buf []byte) []byte { return buf }

func (r *workerSumRun) Restore(parts [][]byte, master []byte) error {
	vals := slices.Clone(r.vals)
	for w, data := range parts {
		for _, id := range hostedBy(r.n, r.opts.Workers, w) {
			x, n := binary.Varint(data)
			if n <= 0 {
				return fmt.Errorf("worker %d: truncated value", w)
			}
			vals[id], data = x, data[n:]
		}
	}
	copy(r.vals, vals)
	// The replay reruns supersteps whose hooks already ran.
	for w := range r.hooks {
		clear(r.hooks[w])
	}
	return nil
}

func (r *workerSumRun) run() *Stats {
	eng, err := NewEngine(r.opts, r.vertices)
	if err != nil {
		r.t.Fatal(err)
	}
	stats, err := eng.Run()
	if err != nil {
		r.t.Fatal(err)
	}
	return stats
}

// TestWorkerPlaneHookRunsOncePerWorker checks the hook's contract: once per
// worker per superstep, before that worker's vertices, handed what they sent
// it, and its sends are delivered the next superstep like a vertex's, in
// (source worker, send order).
func TestWorkerPlaneHookRunsOncePerWorker(t *testing.T) {
	const n, workers, steps = 40, 3, 8
	r := newWorkerSumRun(t, n, workers, steps, nil, nil)
	stats := r.run()
	for w, calls := range r.hooks {
		for step, c := range calls {
			if c != 1 {
				t.Fatalf("worker %d's hook ran %d times at superstep %d", w, c, step)
			}
		}
	}
	// The vertices send worker records at supersteps s%4 < 2, so the hooks
	// send at s%4 in {1, 2}, and vertex 0 receives at s%4 in {2, 3}.
	sent := func(step int) bool { return step >= 0 && step%4 < 2 }
	for step := 0; step < steps; step++ {
		// Every worker's sum arrives as a record of its own, two from a
		// worker whose second send also chose vertex 0, worker by worker;
		// the engine folds nothing.
		var want []int64
		for w := 0; w < workers && sent(step-2); w++ {
			want = append(want, int64(w))
			if ((step-1)*7+w)%n == 0 {
				want = append(want, int64(w))
			}
		}
		var got []int64
		for _, m := range r.received[step] {
			got = append(got, m%sumTag)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("vertex 0 received sums from workers %v at superstep %d, want %v", got, step, want)
		}
	}
	for _, ss := range stats.PerSuperstep {
		// One worker group per worker when the vertices send, and one or
		// two envelopes per hook when the hooks do.
		var lo, hi int64
		if sent(ss.Superstep) {
			lo, hi = workers, workers
		}
		if sent(ss.Superstep - 1) {
			lo, hi = lo+workers, hi+2*workers
		}
		if ss.MessagesSent < lo || ss.MessagesSent > hi {
			t.Fatalf("superstep %d sent %d envelopes, want %d to %d", ss.Superstep, ss.MessagesSent, lo, hi)
		}
	}
}

// TestWorkerPlaneHookTransportsAgree runs the hook's sends over both
// transports: the same values, deliveries and message counts.
func TestWorkerPlaneHookTransportsAgree(t *testing.T) {
	const n, workers, steps = 40, 3, 8
	mem := newWorkerSumRun(t, n, workers, steps, MemoryTransport(), nil)
	ms := mem.run()
	tcp := newWorkerSumRun(t, n, workers, steps, TCPTransport(), nil)
	ts := tcp.run()
	if !slices.Equal(mem.vals, tcp.vals) {
		t.Fatalf("values differ across transports:\n%v\n%v", mem.vals, tcp.vals)
	}
	for step := range mem.received {
		if !slices.Equal(mem.received[step], tcp.received[step]) {
			t.Fatalf("superstep %d: vertex 0 received %v in memory, %v over TCP", step, mem.received[step], tcp.received[step])
		}
	}
	if ms.TotalMessages != ts.TotalMessages || ms.RemoteMessages != ts.RemoteMessages {
		t.Fatalf("message counts differ: %d/%d in memory, %d/%d over TCP",
			ms.TotalMessages, ms.RemoteMessages, ts.TotalMessages, ts.RemoteMessages)
	}
	if ts.TotalBytes == 0 {
		t.Fatal("no frame bytes over TCP")
	}
}

// TestWorkerPlaneHookRecovery kills a worker at every superstep, worker
// records or hook sends pending at every barrier but the multiples of 4,
// where the snapshots due every third superstep are taken: the replay from
// the latest checkpoint reruns the hooks and ends byte-identical to an
// undisturbed run.
func TestWorkerPlaneHookRecovery(t *testing.T) {
	const n, workers, steps = 40, 3, 10
	clean := newWorkerSumRun(t, n, workers, steps, nil, NewMemoryCheckpointer())
	cs := clean.run()
	for kill := 1; kill < steps; kill++ {
		hurt := newWorkerSumRun(t, n, workers, steps,
			FaultyTransport(MemoryTransport(), FaultPlan{KillWorker: 1, KillStep: kill}), NewMemoryCheckpointer())
		hs := hurt.run()
		if hs.Recoveries != 1 {
			t.Fatalf("kill at %d: %d recoveries, want 1", kill, hs.Recoveries)
		}
		if !slices.Equal(clean.vals, hurt.vals) {
			t.Fatalf("kill at %d: values differ:\n%v\n%v", kill, clean.vals, hurt.vals)
		}
		if !slices.Equal(cs.PerSuperstep, hs.PerSuperstep) {
			t.Fatalf("kill at %d: per-superstep stats differ", kill)
		}
	}
}
