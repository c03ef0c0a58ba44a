// Package pregel implements a vertex-centric bulk-synchronous-parallel (BSP)
// computation engine in the style of Pregel/Giraph, the substrate the paper's
// distributed implementation runs on (Section 3.2).
//
// The engine plays the role of a Giraph cluster: vertices are hash-sharded
// across a configurable number of workers (the "machines"), a superstep runs
// every active vertex's compute function against the messages delivered to
// it, outgoing messages are buffered per destination worker and exchanged at
// the synchronization barrier, and a master reads every worker's part of the
// superstep's aggregate there and may run its own compute between supersteps.
//
// The engine is generic over its message type M and its aggregate type A
// (EngineOf[M, A]), so a program that sends one flat record type moves it
// unboxed from Send to delivery, and its vertices fold into a struct of its
// own instead of named, boxed aggregators.
//
// The engine owns each vertex's id and halted flag, the inboxes and the
// aggregate, nothing else. A program keeps its per-vertex state indexed by
// the dense ids, and what the master broadcasts is its state too; both are
// checkpointed through Options.Program. A snapshot is taken only at a
// barrier where no record is pending, so it holds the halted flags beside
// the program's state and no message.
//
// An engine may have no vertices at all. Its workers' hooks are then the
// whole program, as in the block-centric engines (Giraph++, Blogel): each
// worker steps its own state once per superstep and addresses records to
// workers, and the master, or MaxSupersteps, ends the run.
//
// The message plane is layered, and id-indexed throughout, so no step of it
// hashes or sorts:
//
//   - engine.go places every vertex once (id -> worker, local index), runs
//     supersteps, buffers each worker's sends as flat records in one slab per
//     destination worker, and at the barrier groups each worker's arrivals by
//     destination with a stable counting scatter over the records, so a
//     vertex is handed a contiguous []M in (source worker, send order);
//   - codec.go turns envelopes of records into flat bytes (Codec[M]), which
//     makes byte accounting measured rather than estimated;
//   - transport.go moves those bytes between workers over loopback TCP, or
//     leaves the values where they are on the in-process backend.
//
// Send gathers one worker's records for one vertex into one envelope: a slot
// array indexed by the destination's local index finds the envelope already
// buffered for it, so one destination header crosses the transport per
// (source worker, destination vertex) whatever the number of records, and a
// codec encodes the 1..n records of an envelope together. Message and byte
// counts are tracked per superstep, distinguishing intra-worker from
// cross-worker traffic, so communication-complexity claims can be measured
// rather than asserted.
//
// Besides vertices, a record may address a worker. SendWorker puts it in one
// envelope per (source worker, destination worker), under the reserved
// destination id NumVertices() (0 on an engine with no vertices), which
// rides the same codec, frames, grouping and inbox as every other envelope:
// the worker group sits after the worker's own vertices.
// Options.PreSuperstep, the one worker hook, like Giraph's
// WorkerContext.preSuperstep, runs once per worker before its first vertex,
// is handed that group and may Send. A program that keeps a per-worker copy
// of remote state (PowerGraph's mirrors) sends one record per worker that
// needs it and fans it out there, to local vertices or to state of its own;
// HashWorker tells it where the engine places each vertex. A pending worker
// group keeps Run going like a pending message.
//
// The engine never folds records. A program that sums contributions per
// worker folds them in its state and ships the sums from the hook, and the
// receiving vertex adds what each worker sent.
//
// Engine, Options, Context and NewEngine are the M = Message (any)
// instantiation with an empty aggregate, whose Codec is a Registry of
// per-type value codecs.
package pregel

import "time"

// VertexID identifies a vertex. An engine's vertices carry exactly the ids
// 0..n-1: the id is the index into the engine's placement table.
type VertexID int64

// Message is the message type of the Message-typed plane (Engine, Options,
// Context): any value a Registry has a codec for.
type Message = any

// Vertex is one vertex's engine-side record: its id and whether it voted to
// halt. State is a slot no checkpoint holds, which NewEngineOf refuses when
// a Checkpointer is set; a program keeps its state itself, indexed by ID.
type Vertex struct {
	ID     VertexID
	State  any
	halted bool
}

// ContextOf is handed to compute functions to interact with the engine.
type ContextOf[M, A any] struct {
	engine    *EngineOf[M, A]
	worker    *worker[M, A]
	superstep int
	vertex    *Vertex
}

// Context is the Message-typed plane's ContextOf.
type Context = ContextOf[Message, struct{}]

// Superstep returns the current superstep number (0-based).
func (c *ContextOf[M, A]) Superstep() int { return c.superstep }

// Worker returns the index of the worker running the vertex (or a hook), in
// [0, Workers).
func (c *ContextOf[M, A]) Worker() int { return c.worker.id }

// NumVertices returns the total vertex count.
func (c *ContextOf[M, A]) NumVertices() int { return len(c.engine.place) }

// Send delivers m to dst at the start of the next superstep. A record for a
// destination this worker already addressed joins that envelope, so one
// envelope per (source worker, destination vertex) pair reaches the
// transport, and dst receives its records in (source worker, send order).
//
// A dst outside [0, NumVertices()) has no vertex: Send panics with a typed
// error the engine recovers into a *ComputeError wrapping ErrNoSuchVertex,
// failing the superstep instead of shipping a message nobody receives.
func (c *ContextOf[M, A]) Send(dst VertexID, m M) {
	e := c.engine
	if dst < 0 || dst >= VertexID(len(e.place)) {
		panic(&sendError{dst: dst})
	}
	p := e.place[dst]
	c.worker.out[p.worker].add(p.local, dst, m)
}

// SendWorker delivers m to worker w at the start of the next superstep,
// where w's PreSuperstep hook receives it, in (source worker, send order).
// Every record one worker sends w rides one envelope, addressed to the
// reserved id NumVertices(), so it counts once in MessagesSent; on an engine
// with no vertices that id is 0, a one-byte header. w must be in
// [0, Workers).
func (c *ContextOf[M, A]) SendWorker(w int, m M) {
	e := c.engine
	c.worker.out[w].add(int32(len(e.workers[w].vertices)), VertexID(len(e.place)), m)
}

// Aggregate returns this worker's part of the superstep's aggregate, zero
// when the superstep began. A worker runs its vertices one at a time, so a
// vertex program updates its part in place without locking; the master reads
// every worker's part at the barrier.
func (c *ContextOf[M, A]) Aggregate() *A { return &c.worker.agg }

// VoteToHalt deactivates the vertex; a received message reactivates it.
func (c *ContextOf[M, A]) VoteToHalt() { c.vertex.halted = true }

// WireSizer is optionally implemented by *A, the aggregate's pointer, to
// report what one worker's part would cost to ship to the master. The engine
// sums it over the parts at each barrier into SuperstepStats.AggBytes; an
// aggregate that does not implement it counts zero. Kept separate from
// BytesSent (the vertex-message transport plane) so the two planes'
// communication claims stay independently measurable.
type WireSizer interface {
	WireSize() int
}

// SuperstepStats records one superstep's traffic and load. MessagesSent and
// RemoteMessages count envelopes, one per (source worker, destination
// vertex) that Send addressed — what actually crossed (or would cross) the
// transport. BytesSent is the transport's accounting: real frame bytes on
// the TCP backend, codec-measured sizes on the in-process backend (0
// without a codec). ActiveVertices counts the engine's vertices that ran:
// not halted, or woken by a pending message. It is always 0 on an engine with
// no vertices, whose workers' hooks do all the work.
type SuperstepStats struct {
	Superstep      int
	ActiveVertices int
	MessagesSent   int64
	RemoteMessages int64
	BytesSent      int64
	// AggBytes is the worker->master aggregate traffic of the superstep, as
	// reported by an aggregate implementing WireSizer (0 otherwise). Not
	// included in BytesSent: the master reads the parts in-process at the
	// barrier, they are not shipped through the transport.
	AggBytes        int64
	MaxWorkerActive int // busiest worker's active vertex count (load balance)
}

// Stats aggregates a run.
type Stats struct {
	Supersteps     int
	TotalMessages  int64
	RemoteMessages int64
	TotalBytes     int64
	AggBytes       int64
	// Recoveries counts checkpoint rollbacks taken after a worker failure.
	Recoveries int
	// RetriedFrames counts transport exchanges re-attempted after a
	// transient error (errors wrapping ErrTransient) before succeeding.
	RetriedFrames int64
	// CheckpointBytes is the total size of all snapshots written.
	CheckpointBytes int64
	PerSuperstep    []SuperstepStats
}

// PhaseTotals attributes the run's traffic to protocol phases for
// computations whose supersteps cycle through a fixed period (superstep s
// plays phase s % period): entry p sums MessagesSent, RemoteMessages, and
// BytesSent over the supersteps of phase p, with Superstep holding the phase
// index and ActiveVertices/MaxWorkerActive the phase's maxima. distshp's
// 4-superstep refinement loop uses this to report what each protocol role
// (bucket updates, gain/patch plane, proposals, moves) costs on the wire.
func (s *Stats) PhaseTotals(period int) []SuperstepStats {
	if period <= 0 {
		return nil
	}
	totals := make([]SuperstepStats, period)
	for p := range totals {
		totals[p].Superstep = p
	}
	for _, ss := range s.PerSuperstep {
		t := &totals[ss.Superstep%period]
		t.MessagesSent += ss.MessagesSent
		t.RemoteMessages += ss.RemoteMessages
		t.BytesSent += ss.BytesSent
		t.AggBytes += ss.AggBytes
		if ss.ActiveVertices > t.ActiveVertices {
			t.ActiveVertices = ss.ActiveVertices
		}
		if ss.MaxWorkerActive > t.MaxWorkerActive {
			t.MaxWorkerActive = ss.MaxWorkerActive
		}
	}
	return totals
}

// OptionsOf configures an EngineOf.
type OptionsOf[M, A any] struct {
	// Workers is the number of simulated machines. <= 0 means 1.
	Workers int
	// Compute is the vertex program (required when the engine has vertices).
	Compute func(ctx *ContextOf[M, A], v *Vertex, messages []M)
	// Master runs at every barrier (optional, but required when the engine
	// has no vertices, which nothing else halts). parts are the workers' parts
	// of the superstep's aggregate, in worker order, which the engine zeroes
	// when Master returns. Returning true halts the computation after this
	// superstep. A value the vertices read from the master is the program's
	// own state: Master writes it between supersteps, and Program
	// checkpoints it.
	Master func(superstep int, parts []*A) (halt bool)
	// MaxSupersteps bounds the run (required, > 0).
	MaxSupersteps int
	// Transport selects the message-plane backend (nil means the in-process
	// MemoryTransport). See MemoryTransport and TCPTransport.
	Transport Transport
	// Codecs encodes envelopes of M. Required by the TCP transport; on the
	// in-process transport it is the byte accounting (without it BytesSent
	// is 0). No checkpoint uses it: a snapshot holds no messages.
	Codecs Codec[M]
	// PreSuperstep, if set, is the worker hook: it runs once per worker per
	// superstep, before that worker's first vertex, as Giraph's
	// WorkerContext.preSuperstep does. msgs are the records SendWorker
	// addressed to the worker in the previous superstep, in (source worker,
	// send order). It may Send, SendWorker and fold into the Aggregate like a
	// vertex, and must not VoteToHalt; what it sends is delivered next
	// superstep. A program that folds contributions per worker ships them
	// from here; what it keeps between supersteps is its own state, which
	// Program checkpoints.
	PreSuperstep func(ctx *ContextOf[M, A], msgs []M)

	// Checkpointer, if set, enables superstep checkpointing: every
	// CheckpointEvery supersteps the engine snapshots the halted flags and,
	// through Program, the program's state, and rolls back to the latest
	// snapshot when an exchange fails with a *WorkerFailure. A snapshot is
	// taken only at a barrier where no inbox holds a record; one that falls
	// due while records are pending waits for the first such barrier. The
	// aggregate is zero at every barrier, so no snapshot holds it either.
	// Nil disables checkpointing (any worker failure aborts the run).
	Checkpointer Checkpointer
	// CheckpointEvery is the snapshot cadence in supersteps. <= 0 means 64.
	// A snapshot is always taken at superstep 0 (before any compute, when
	// nothing is pending) so recovery is possible from the first barrier
	// onward. A program that keeps records pending at every barrier is
	// checkpointed there only, and a failure replays it from the start.
	CheckpointEvery int
	// Program checkpoints the program's state beside the engine's: each
	// worker's and the master's (see ProgramState). Required with a
	// Checkpointer.
	Program ProgramState
	// FrameTimeout is the per-frame read/write deadline on the TCP
	// transport. <= 0 means no deadline (a dead peer blocks forever).
	FrameTimeout time.Duration
}

// Options is the Message-typed plane's OptionsOf.
type Options = OptionsOf[Message, struct{}]
