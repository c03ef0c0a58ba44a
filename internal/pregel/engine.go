package pregel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"shp/internal/par"
	"shp/internal/rng"
)

// envelope is one (source worker, destination vertex) unit of traffic: the
// records one worker sent one vertex in a superstep. Once its slab is grouped
// they are rec[first : first+n]; while sends run, first is where its first
// record was sent, which is the same place while every envelope holds one.
type envelope struct {
	dst   VertexID
	first int32
	n     int32
}

// placement is where the engine put a vertex: its worker and its index in
// that worker's id-sorted vertex list. The table is built once in NewEngine
// and indexed by vertex id, so neither Send nor delivery hashes anything.
type placement struct {
	worker int32
	local  int32
}

// traffic is what one source worker delivers to one destination worker in a
// superstep: envelopes, and their records grouped by envelope in rec.
type traffic[M any] struct {
	envs []envelope
	rec  []M
}

func (t *traffic[M]) records(env envelope) []M { return t.rec[env.first : env.first+env.n] }

func (t *traffic[M]) reset() {
	clear(t.rec) // release references for the collector
	t.envs, t.rec = t.envs[:0], t.rec[:0]
}

// outbox buffers one worker's records for one destination worker in send
// order. slot is indexed by the destination's local index, the worker group
// one past the last vertex, and holds envelope+1 (0 for none), so Send finds
// the envelope a vertex already has with one load, and envOf[i] is the
// envelope rec[i] rides in: one envelope per (source worker, destination
// vertex) pays one destination header for all of its records. Only slots
// envs names are ever non-zero, so clearing walks envs.
type outbox[M any] struct {
	traffic[M]
	envOf []int32
	slot  []int32
}

// add buffers m for dst, at local index l on the destination worker: it
// joins the envelope the outbox already holds for dst, or opens one.
func (ob *outbox[M]) add(l int32, dst VertexID, m M) {
	s := ob.slot[l]
	if s == 0 {
		ob.envs = push(ob.envs, envelope{dst: dst, first: int32(len(ob.rec))})
		s = int32(len(ob.envs))
		ob.slot[l] = s
	}
	ob.envs[s-1].n++
	ob.envOf = push(ob.envOf, s-1)
	ob.rec = push(ob.rec, m)
}

// group lays the records out envelope by envelope, the order codecs encode
// and delivery reads, in place: a stable pass turns envOf[i] into rec[i]'s
// position, and swaps then put every record there. When every envelope holds
// one record, send order already is that layout.
func (ob *outbox[M]) group() {
	if len(ob.rec) == len(ob.envs) {
		return
	}
	at := int32(0)
	for i := range ob.envs {
		ob.envs[i].first = at
		at += ob.envs[i].n
	}
	to := ob.envOf
	for i, e := range to {
		to[i] = ob.envs[e].first
		ob.envs[e].first++
	}
	for i := range ob.envs {
		ob.envs[i].first -= ob.envs[i].n
	}
	for i := range to {
		for j := to[i]; j != int32(i); j = to[i] {
			ob.rec[i], ob.rec[j] = ob.rec[j], ob.rec[i]
			to[i], to[j] = to[j], j
		}
	}
}

// grow returns s with room for n more elements, at least doubling a slice it
// reallocates: a slab grows to its peak superstep once per run, and doubling
// allocates about twice that peak where append's 1.25x steps for large
// slices allocate five times it.
func grow[T any](s []T, n int) []T {
	if cap(s)-len(s) < n {
		s = slices.Grow(s, max(n, len(s)))
	}
	return s
}

func push[T any](s []T, v T) []T { return append(grow(s, 1), v) }

// inbox holds a worker's received records grouped by destination: local
// vertex l's are msg[start[l]:start[l+1]], in (source worker, send order),
// and the worker group (SendWorker's records) follows them at l = the
// worker's vertex count. Offsets are int32, which bounds one worker's
// superstep at 2^31 records. start has three entries more than the worker
// has vertices; the last one is scratch for the counting scatter in deliver.
type inbox[M any] struct {
	start []int32
	msg   []M
}

// group returns the records of local destination l.
func (in *inbox[M]) group(l int) []M {
	lo, hi := in.start[l], in.start[l+1]
	return in.msg[lo:hi:hi]
}

func (in *inbox[M]) reset() {
	clear(in.start)
	clear(in.msg) // release references for the collector
	in.msg = in.msg[:0]
}

type worker[M, A any] struct {
	id       int
	vertices []*Vertex // sorted by ID
	in       inbox[M]
	out      []outbox[M]  // per destination worker
	staged   []traffic[M] // per source worker: frames decoded off the wire
	agg      A            // this worker's part of the superstep's aggregate
}

// EngineOf is a configured computation over a fixed vertex set.
type EngineOf[M, A any] struct {
	opts      OptionsOf[M, A]
	transport Transport
	framed    bool      // the transport moves frames the engine encodes
	frameOut  [][]frame // [src][dst]
	frameIn   [][]frame // [dst][src]
	workers   []*worker[M, A]
	parts     []*A        // &workers[i].agg, what Master reads
	place     []placement // by vertex id
	stats     Stats
	snapLen   int // the previous snapshot's size, the next one's starting capacity
}

// Engine is the Message-typed plane's EngineOf.
type Engine = EngineOf[Message, struct{}]

// NewEngine builds a Message-typed engine; see NewEngineOf.
func NewEngine(opts Options, vertices []*Vertex) (*Engine, error) {
	return NewEngineOf(opts, vertices)
}

// NewEngineOf builds an engine over the given vertices, whose ids must be
// exactly 0..len(vertices)-1 in any order.
func NewEngineOf[M, A any](opts OptionsOf[M, A], vertices []*Vertex) (*EngineOf[M, A], error) {
	if opts.Compute == nil {
		return nil, errors.New("pregel: Compute is required")
	}
	if opts.MaxSupersteps <= 0 {
		return nil, errors.New("pregel: MaxSupersteps must be > 0")
	}
	if len(vertices) > math.MaxInt32 {
		return nil, fmt.Errorf("pregel: %d vertices exceed the engine's int32 placement table", len(vertices))
	}
	if opts.Checkpointer != nil && opts.Program == nil {
		return nil, errors.New("pregel: a Checkpointer needs Options.Program to checkpoint the program's state")
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.Transport == nil {
		opts.Transport = MemoryTransport()
	}
	e := &EngineOf[M, A]{
		opts:      opts,
		transport: opts.Transport,
		place:     make([]placement, len(vertices)),
		workers:   make([]*worker[M, A], opts.Workers),
		parts:     make([]*A, opts.Workers),
	}
	for i := range e.workers {
		e.workers[i] = &worker[M, A]{
			id:     i,
			out:    make([]outbox[M], opts.Workers),
			staged: make([]traffic[M], opts.Workers),
		}
		e.parts[i] = &e.workers[i].agg
	}
	byID := make([]*Vertex, len(vertices))
	for _, v := range vertices {
		if v.ID < 0 || v.ID >= VertexID(len(vertices)) {
			return nil, fmt.Errorf("pregel: vertex id %d outside [0, %d): ids must be dense", v.ID, len(vertices))
		}
		if byID[v.ID] != nil {
			return nil, fmt.Errorf("pregel: duplicate vertex id %d", v.ID)
		}
		if v.State != nil && opts.Checkpointer != nil {
			return nil, fmt.Errorf("pregel: vertex %d has a State, which no checkpoint holds: keep it in the program and checkpoint it through Options.Program", v.ID)
		}
		byID[v.ID] = v
	}
	// Walking ids in ascending order leaves every worker's list sorted by
	// id, so superstep execution order is deterministic regardless of input
	// order, and a vertex's local index is its position in that list.
	counts := make([]int, len(e.workers))
	for id := range byID {
		counts[e.hashWorker(VertexID(id))]++
	}
	for i, w := range e.workers {
		w.vertices = make([]*Vertex, 0, counts[i])
	}
	for id, v := range byID {
		w := e.workers[e.hashWorker(VertexID(id))]
		e.place[id] = placement{worker: int32(w.id), local: int32(len(w.vertices))}
		w.vertices = append(w.vertices, v)
	}
	for _, w := range e.workers {
		w.in.start = make([]int32, len(w.vertices)+3)
		for _, src := range e.workers {
			src.out[w.id].slot = make([]int32, len(w.vertices)+1)
		}
	}
	return e, nil
}

// hashWorker shards a vertex id to a worker (multiplicative hash so dense id
// ranges spread evenly, like Giraph's random vertex placement).
func (e *EngineOf[M, A]) hashWorker(id VertexID) int {
	h := uint64(id) * 0x9E3779B97F4A7C15
	return int(h % uint64(len(e.workers)))
}

// WorkerOf returns the worker the engine placed vertex id on, in
// [0, Workers). A program that keeps per-worker tables (SendWorker's
// receivers) builds them from it; id must be in [0, NumVertices()).
func (e *EngineOf[M, A]) WorkerOf(id VertexID) int { return int(e.place[id].worker) }

// local returns where dst sits on worker w: its local index, or one past w's
// last vertex for the worker group's id, NumVertices().
func (e *EngineOf[M, A]) local(w int, dst VertexID) int32 {
	if dst == VertexID(len(e.place)) {
		return int32(len(e.workers[w].vertices))
	}
	return e.place[dst].local
}

// Run executes supersteps until every vertex halts with no pending messages,
// the master requests a halt, or MaxSupersteps is reached. It returns run
// statistics.
//
// With a Checkpointer configured, the engine snapshots its full barrier
// state (halted flags, pending inboxes, and the program's parts and master
// blob through Options.Program) at
// superstep 0 and every CheckpointEvery supersteps, and a *WorkerFailure
// during an exchange rolls every worker back to the latest snapshot and
// replays. Because compute is deterministic given barrier
// state, the replayed run — and therefore Run's result — is byte-identical
// to an undisturbed one (only Stats.Recoveries/RetriedFrames betray the
// faults). Exchange errors wrapping ErrTransient are retried in place with
// exponential backoff first; anything else escalates to recovery.
func (e *EngineOf[M, A]) Run() (*Stats, error) {
	if err := e.open(); err != nil {
		return nil, err
	}
	defer e.transport.close()

	every := e.opts.CheckpointEvery
	if every <= 0 {
		every = 64
	}
	if e.opts.Checkpointer != nil {
		if err := e.checkpoint(0); err != nil {
			return nil, err
		}
	}

	for step := 0; step < e.opts.MaxSupersteps; {
		active := 0
		maxWorkerActive := 0
		pending := false // a worker group, which no vertex count holds
		for _, w := range e.workers {
			wa := 0
			for l, v := range w.vertices {
				if !v.halted || w.in.start[l+1] > w.in.start[l] {
					wa++
				}
			}
			if wa > maxWorkerActive {
				maxWorkerActive = wa
			}
			active += wa
			pending = pending || len(w.in.group(len(w.vertices))) > 0
		}
		if active == 0 && !pending {
			break
		}

		workerErrs := make([]error, len(e.workers))
		par.Each(len(e.workers), func(i int) {
			workerErrs[i] = e.runWorkerSafe(e.workers[i], step)
		})
		for _, werr := range workerErrs {
			if werr != nil {
				// Compute failures are not recoverable by rollback: replaying
				// deterministic compute hits the same bug.
				return nil, werr
			}
		}

		// Barrier: account outboxes (envelopes, which is what crosses the
		// transport), exchange, and hand the aggregate's parts to the master.
		ss := SuperstepStats{Superstep: step, ActiveVertices: active, MaxWorkerActive: maxWorkerActive}
		for _, w := range e.workers {
			for d := range w.out {
				n := int64(len(w.out[d].envs))
				ss.MessagesSent += n
				if d != w.id {
					ss.RemoteMessages += n
				}
			}
		}
		wireBytes, err := e.exchange(step)
		if err != nil {
			restored, rerr := e.recoverFrom(err, step)
			if rerr != nil {
				return nil, rerr
			}
			step = restored
			continue
		}
		ss.BytesSent = wireBytes
		// Aggregate wire accounting: what each worker's part would cost to
		// ship to the master.
		for _, p := range e.parts {
			if ws, ok := any(p).(WireSizer); ok {
				ss.AggBytes += int64(ws.WireSize())
			}
		}

		e.stats.PerSuperstep = append(e.stats.PerSuperstep, ss)
		e.stats.Supersteps++
		e.stats.TotalMessages += ss.MessagesSent
		e.stats.RemoteMessages += ss.RemoteMessages
		e.stats.TotalBytes += ss.BytesSent
		e.stats.AggBytes += ss.AggBytes

		halt := e.opts.Master != nil && e.opts.Master(step, e.parts)
		e.clearAggregates()
		step++
		if halt {
			break
		}
		if e.opts.Checkpointer != nil && step%every == 0 && step < e.opts.MaxSupersteps {
			if err := e.checkpoint(step); err != nil {
				return nil, err
			}
		}
	}
	// A copy, so a caller that keeps the stats does not keep the engine and
	// the message slabs it grew.
	stats := e.stats
	return &stats, nil
}

// runWorkerSafe runs one worker, converting the *sendError a Send to an
// absent vertex panics with into a *ComputeError; any other panic is a
// genuine bug and propagates with its original stack.
func (e *EngineOf[M, A]) runWorkerSafe(w *worker[M, A], step int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			se, ok := r.(*sendError)
			if !ok {
				panic(r)
			}
			err = &ComputeError{Worker: w.id, Superstep: step, Err: se}
		}
	}()
	e.runWorker(w, step)
	return nil
}

// clearAggregates zeroes every worker's part of the aggregate, which the
// master has read or a rollback discards.
func (e *EngineOf[M, A]) clearAggregates() {
	var zero A
	for _, p := range e.parts {
		*p = zero
	}
}

// open starts the transport for this engine's workers; a framed backend
// needs a codec, and frame tables the engine encodes into and decodes from.
func (e *EngineOf[M, A]) open() error {
	framed, err := e.transport.start(len(e.workers), e.opts.FrameTimeout)
	if err != nil {
		return err
	}
	if framed && e.opts.Codecs == nil {
		e.transport.close()
		return errors.New("pregel: the TCP transport requires Options.Codecs")
	}
	e.framed = framed
	if framed && e.frameOut == nil {
		e.frameOut, e.frameIn = make([][]frame, len(e.workers)), make([][]frame, len(e.workers))
		for i := range e.workers {
			e.frameOut[i], e.frameIn[i] = make([]frame, len(e.workers)), make([]frame, len(e.workers))
		}
	}
	return nil
}

// exchange moves every worker's outboxes into the destination inboxes and
// returns the bytes to charge to SuperstepStats.BytesSent: the encoded size
// of all traffic on the in-process backend, what crossed sockets (frame
// headers included) on a framed one. Local traffic never leaves its outbox.
// Only the transport's move is retried; encoding and decoding are
// deterministic, so a failure there fails the same way on every attempt.
func (e *EngineOf[M, A]) exchange(step int) (int64, error) {
	n := len(e.workers)
	errs := make([]error, n)
	par.Each(n, func(src int) {
		w := e.workers[src]
		for dst := range w.out {
			ob := &w.out[dst]
			ob.group()
			if e.framed && dst != src && errs[src] == nil {
				f := &e.frameOut[src][dst]
				f.payload, errs[src] = e.encode(f.payload[:0], &ob.traffic)
				f.count = uint32(len(ob.envs))
			}
		}
	})
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	var bytes int64
	if !e.framed && e.opts.Codecs != nil {
		for _, w := range e.workers {
			for dst := range w.out {
				nb, err := e.size(&w.out[dst].traffic)
				if err != nil {
					return 0, err
				}
				bytes += nb
			}
		}
	}
	nb, err := e.exchangeWithRetry(step)
	if err != nil {
		return 0, err
	}
	if e.framed {
		bytes = nb
		par.Each(n, func(dst int) {
			for src := range e.workers {
				if src == dst || errs[dst] != nil {
					continue
				}
				if err := e.decode(e.workers[dst], src, e.frameIn[dst][src]); err != nil {
					// The frame arrived whole but does not parse: the sender is
					// confused or the bytes are damaged, so blame the sender
					// and let the engine roll back.
					errs[dst] = &WorkerFailure{Worker: src, Superstep: step,
						Err: fmt.Errorf("worker %d <- %d: %w", dst, src, err)}
				}
			}
		})
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
	}
	par.Each(n, func(dst int) {
		w := e.workers[dst]
		e.deliver(w, func(src int) *traffic[M] {
			if e.framed && src != dst {
				return &w.staged[src]
			}
			return &e.workers[src].out[dst].traffic
		})
		for src := range w.staged {
			w.staged[src].reset()
		}
	})
	for _, w := range e.workers {
		e.clearOutboxes(w)
	}
	return bytes, nil
}

// encode appends one outbox's envelopes to a frame payload: each one's
// destination id as a uvarint, then the codec's encoding of its records. It
// writes in one pass: the frame keeps its payload between supersteps, so the
// buffer grows only when a superstep outgrows every earlier one.
func (e *EngineOf[M, A]) encode(buf []byte, t *traffic[M]) ([]byte, error) {
	var err error
	for _, env := range t.envs {
		buf = binary.AppendUvarint(buf, uint64(env.dst))
		if buf, err = e.opts.Codecs.Append(buf, t.records(env)); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// size is what encode would write for t, charged on the in-process backend.
func (e *EngineOf[M, A]) size(t *traffic[M]) (int64, error) {
	var bytes int64
	for _, env := range t.envs {
		n, err := e.opts.Codecs.Size(t.records(env))
		if err != nil {
			return 0, err
		}
		bytes += int64(uvarintLen(uint64(env.dst)) + n)
	}
	return bytes, nil
}

// decode parses the frame worker src sent w into w.staged[src]. An envelope
// addressed to a vertex w does not own, or to an id above NumVertices() (the
// worker group's), makes the frame as undecodable as a truncated one:
// delivering it would index another worker's placement.
func (e *EngineOf[M, A]) decode(w *worker[M, A], src int, f frame) error {
	t := &w.staged[src]
	t.reset() // a frame that failed to parse may have left records behind
	data := f.payload
	for i := uint32(0); i < f.count; i++ {
		dst, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("truncated envelope header")
		}
		if dst > uint64(len(e.place)) || dst < uint64(len(e.place)) && int(e.place[dst].worker) != w.id {
			return fmt.Errorf("envelope for vertex %d, which worker %d does not own", dst, w.id)
		}
		first := len(t.rec)
		var used int
		var err error
		if t.rec, used, err = e.opts.Codecs.Decode(data[n:], grow(t.rec, 1)); err != nil {
			return err
		}
		data = data[n+used:]
		t.envs = push(t.envs, envelope{dst: VertexID(dst), first: int32(first), n: int32(len(t.rec) - first)})
	}
	if len(data) != 0 {
		return fmt.Errorf("%d trailing bytes after %d envelopes", len(data), f.count)
	}
	return nil
}

func (e *EngineOf[M, A]) clearOutboxes(w *worker[M, A]) {
	for d := range w.out {
		ob := &w.out[d]
		for _, env := range ob.envs {
			ob.slot[e.local(d, env.dst)] = 0
		}
		ob.traffic.reset()
		ob.envOf = ob.envOf[:0]
	}
}

// Failure handling bounds: maxRecoveries checkpoint rollbacks per run, and
// exchangeRetries in-place retries of an exchange that failed with a
// transient error (wrapping ErrTransient) before the failure is escalated to
// recovery; retry i waits retryBackoff << i plus deterministic jitter.
const (
	maxRecoveries   = 8
	exchangeRetries = 3
	retryBackoff    = 500 * time.Microsecond
)

// exchangeWithRetry runs the transport's move, retrying in place (with
// exponential backoff plus deterministic jitter) when the failure is marked
// transient — i.e. the transport guarantees the attempt had no side effect.
func (e *EngineOf[M, A]) exchangeWithRetry(step int) (int64, error) {
	for attempt := 0; ; attempt++ {
		nb, err := e.transport.exchange(step, e.frameOut, e.frameIn)
		if err == nil {
			return nb, nil
		}
		if !errors.Is(err, ErrTransient) || attempt >= exchangeRetries {
			return 0, err
		}
		e.stats.RetriedFrames++
		delay := retryBackoff << attempt
		jitter := time.Duration(rng.Mix(uint64(step), uint64(attempt)) % uint64(retryBackoff))
		time.Sleep(delay + jitter)
	}
}

// recoverFrom handles a failed exchange at the given superstep: if the error
// is a *WorkerFailure and a checkpoint is available, it tears down the
// transport, restores the latest snapshot on every worker, rewinds the
// superstep statistics, and restarts the transport, returning the superstep
// to resume from. A snapshot that does not decode (a write that raced a
// crash, a damaged file) leaves the engine untouched, and recovery falls
// back to the next older one when the checkpointer keeps any; with none
// left the error still unwraps to the *WorkerFailure. Any other error — or
// recovery budget exhaustion — is returned unchanged.
func (e *EngineOf[M, A]) recoverFrom(err error, step int) (int, error) {
	var wf *WorkerFailure
	if !errors.As(err, &wf) {
		return 0, err
	}
	if e.opts.Checkpointer == nil || e.stats.Recoveries >= maxRecoveries {
		return 0, err
	}
	snapStep, snapshot, ok, cerr := e.opts.Checkpointer.Latest()
	if cerr != nil || !ok {
		return 0, err
	}
	e.stats.Recoveries++
	e.transport.close()
	for {
		rerr := e.restoreSnapshot(snapshot)
		if rerr == nil {
			break
		}
		failed := fmt.Errorf("pregel: recovery from %w failed: snapshot %d: %w", err, snapStep, rerr)
		// Checkpointer is implemented outside this package by wrappers that
		// forward Save and Latest only, so older snapshots are an optional
		// capability rather than a third method.
		older, can := e.opts.Checkpointer.(interface {
			Before(superstep int) (int, []byte, bool, error)
		})
		if !can {
			return 0, failed
		}
		if snapStep, snapshot, ok, cerr = older.Before(snapStep); cerr != nil || !ok {
			return 0, failed
		}
	}
	// Rewind run statistics to the checkpoint boundary; the replay will
	// re-append identical per-superstep entries (compute is deterministic),
	// keeping PerSuperstep comparable to an undisturbed run. The resilience
	// counters (Recoveries, RetriedFrames, CheckpointBytes) deliberately
	// survive the rewind: they are the cost of the faults themselves.
	e.stats.PerSuperstep = e.stats.PerSuperstep[:snapStep]
	e.stats.Supersteps = snapStep
	e.stats.TotalMessages, e.stats.RemoteMessages = 0, 0
	e.stats.TotalBytes, e.stats.AggBytes = 0, 0
	for _, ss := range e.stats.PerSuperstep {
		e.stats.TotalMessages += ss.MessagesSent
		e.stats.RemoteMessages += ss.RemoteMessages
		e.stats.TotalBytes += ss.BytesSent
		e.stats.AggBytes += ss.AggBytes
	}
	if serr := e.open(); serr != nil {
		return 0, fmt.Errorf("pregel: transport restart after recovery: %w", serr)
	}
	return snapStep, nil
}

// deliver fills worker w's inbox from this superstep's traffic, from(src)
// being what source worker src addressed to w. A stable counting pass —
// count per destination, prefix-sum, scatter — walks the sources in worker
// order twice and writes each record once, straight into its destination's
// group; there is no ungrouped intermediate, and the worker group is one
// more destination. The inbox must be empty (runWorker leaves it so).
func (e *EngineOf[M, A]) deliver(w *worker[M, A], from func(src int) *traffic[M]) {
	// Counts go in two entries up, so that after the prefix sum start[l+1]
	// is where vertex l's group begins; the scatter advances it to where the
	// group ends, which is where start[l] already says the next one begins.
	start := w.in.start
	for src := range e.workers {
		for _, env := range from(src).envs {
			start[e.local(w.id, env.dst)+2] += env.n
		}
	}
	for l := 2; l < len(start); l++ {
		start[l] += start[l-1]
	}
	total := int(start[len(start)-1])
	w.in.msg = grow(w.in.msg, total)[:total]
	for src := range e.workers {
		t := from(src)
		for _, env := range t.envs {
			at := &start[e.local(w.id, env.dst)+1]
			*at += int32(copy(w.in.msg[*at:], t.records(env)))
		}
	}
}

// runWorker executes one worker's PreSuperstep hook with the worker group,
// then its vertices for one superstep, handing each its group of the inbox,
// then the PostSuperstep hook.
func (e *EngineOf[M, A]) runWorker(w *worker[M, A], step int) {
	ctx := &ContextOf[M, A]{engine: e, worker: w, superstep: step}
	if pre := e.opts.PreSuperstep; pre != nil {
		pre(ctx, w.in.group(len(w.vertices)))
	}
	for l, v := range w.vertices {
		msgs := w.in.group(l)
		if v.halted && len(msgs) == 0 {
			continue
		}
		v.halted = false
		ctx.vertex = v
		e.opts.Compute(ctx, v, msgs)
	}
	if post := e.opts.PostSuperstep; post != nil {
		ctx.vertex = nil
		post(ctx)
	}
	w.in.reset()
}

// Vertex returns the vertex with the given id (nil if absent). Intended for
// result extraction after Run.
func (e *EngineOf[M, A]) Vertex(id VertexID) *Vertex {
	if id < 0 || id >= VertexID(len(e.place)) {
		return nil
	}
	p := e.place[id]
	return e.workers[p.worker].vertices[p.local]
}

// Workers returns the configured worker count.
func (e *EngineOf[M, A]) Workers() int { return len(e.workers) }
