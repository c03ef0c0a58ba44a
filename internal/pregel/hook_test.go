package pregel

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
)

// workerSumRun is a per-worker summing program for the PostSuperstep hook:
// every vertex adds what it received to its value and folds the value into
// its worker's accumulator, and the hook sends each worker's sum to one
// vertex and empties the accumulator, so nothing but the values is live at
// a barrier. It logs what the hook must guarantee: one call per worker per
// superstep, after every one of the worker's vertices.
type workerSumRun struct {
	n        int
	vals     []int64   // by vertex id
	acc      []int64   // per worker, empty at every barrier
	ran      []int     // per worker: vertices run since its last hook
	hooks    [][]int   // [worker][superstep]: hook calls
	received [][]int64 // [superstep]: what vertex 0 received
	opts     Options
	vertices []*Vertex
	t        *testing.T
}

func newWorkerSumRun(t *testing.T, n, workers, steps int, transport Transport, cp Checkpointer) *workerSumRun {
	r := &workerSumRun{n: n, vals: make([]int64, n), acc: make([]int64, workers), ran: make([]int, workers),
		hooks: make([][]int, workers), received: make([][]int64, steps), vertices: make([]*Vertex, n), t: t}
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
			if r.hooks[w][step] != 0 {
				t.Errorf("vertex %d ran on worker %d after its hook at superstep %d", v.ID, w, step)
			}
			for _, m := range msgs {
				r.vals[v.ID] += m.(int64)
				if v.ID == 0 {
					r.received[step] = append(r.received[step], m.(int64))
				}
			}
			r.acc[w] += r.vals[v.ID]
			r.ran[w]++
		},
		PostSuperstep: func(ctx *Context) {
			w, step := ctx.Worker(), ctx.Superstep()
			r.hooks[w][step]++
			if r.ran[w] == 0 {
				t.Errorf("worker %d's hook ran before any of its vertices at superstep %d", w, step)
			}
			r.ran[w] = 0
			// Every worker's sum lands on vertex 0, and on one vertex of its own choosing.
			ctx.Send(0, r.acc[w]%1000)
			ctx.Send(VertexID((step*7+w)%n), r.acc[w]%1000)
			r.acc[w] = 0
		},
	}
	if cp != nil {
		r.opts.Program = r
	}
	return r
}

// AppendWorker encodes the worker's values; the accumulators are empty.
func (r *workerSumRun) AppendWorker(buf []byte, vertices []*Vertex) []byte {
	for _, v := range vertices {
		buf = binary.AppendVarint(buf, r.vals[v.ID])
	}
	return buf
}

func (r *workerSumRun) AppendMaster(buf []byte) []byte { return buf }

func (r *workerSumRun) Restore(workers [][]*Vertex, parts [][]byte, master []byte) error {
	vals := slices.Clone(r.vals)
	for w, vs := range workers {
		data := parts[w]
		for _, v := range vs {
			x, n := binary.Varint(data)
			if n <= 0 {
				return fmt.Errorf("worker %d: truncated value", w)
			}
			vals[v.ID], data = x, data[n:]
		}
	}
	copy(r.vals, vals)
	// The replay reruns supersteps whose hooks already ran.
	clear(r.ran)
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

// TestPostSuperstepRunsOncePerWorker checks the hook's contract: once per
// worker per superstep, after that worker's vertices, and its sends are
// delivered the next superstep like a vertex's.
func TestPostSuperstepRunsOncePerWorker(t *testing.T) {
	const n, workers, steps = 40, 3, 6
	r := newWorkerSumRun(t, n, workers, steps, nil, nil)
	stats := r.run()
	for w, calls := range r.hooks {
		for step, c := range calls {
			if c != 1 {
				t.Fatalf("worker %d's hook ran %d times at superstep %d", w, c, step)
			}
		}
	}
	if len(r.received[0]) != 0 {
		t.Fatalf("vertex 0 received %v at superstep 0", r.received[0])
	}
	for step := 1; step < steps; step++ {
		// Every worker's sum arrives as a record of its own, two from a
		// worker whose second send also chose vertex 0; the engine folds
		// nothing.
		want := workers
		for w := 0; w < workers; w++ {
			if ((step-1)*7+w)%n == 0 {
				want++
			}
		}
		if len(r.received[step]) != want {
			t.Fatalf("vertex 0 received %v at superstep %d, want %d sums", r.received[step], step, want)
		}
	}
	for _, ss := range stats.PerSuperstep {
		if ss.MessagesSent < workers || ss.MessagesSent > 2*workers {
			t.Fatalf("superstep %d sent %d envelopes, want %d to %d from the hooks", ss.Superstep, ss.MessagesSent, workers, 2*workers)
		}
	}
}

// TestPostSuperstepTransportsAgree runs the hook's sends over both
// transports: the same values, deliveries and message counts.
func TestPostSuperstepTransportsAgree(t *testing.T) {
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

// TestPostSuperstepRecovery kills a worker mid-run: the replay from the
// latest checkpoint reruns the hooks and ends byte-identical to an
// undisturbed run.
func TestPostSuperstepRecovery(t *testing.T) {
	const n, workers, steps = 40, 3, 10
	for _, kill := range []int{4, 7} {
		clean := newWorkerSumRun(t, n, workers, steps, nil, NewMemoryCheckpointer())
		cs := clean.run()
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
