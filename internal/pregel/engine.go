package pregel

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"shp/internal/par"
	"shp/internal/rng"
)

// envelope is one message addressed to a destination vertex.
type envelope struct {
	dst VertexID
	msg Message
}

// outbox buffers one worker's messages for one destination worker. When a
// combiner is configured, idx tracks the position of the (single) combined
// message per destination vertex so Send can fold into it — Giraph's
// sender-side combining, which is what actually reduces wire traffic.
type outbox struct {
	env []envelope
	idx map[VertexID]int
}

// inbox holds a worker's received messages as parallel slices: sorting the
// pair by destination groups each vertex's messages into a contiguous run,
// so delivery is a merge-join against the (id-sorted) vertex list with no
// per-vertex map entries or slice allocations.
type inbox struct {
	dst []VertexID
	msg []Message
}

func (in *inbox) push(env envelope) {
	in.dst = append(in.dst, env.dst)
	in.msg = append(in.msg, env.msg)
}

func (in *inbox) len() int { return len(in.dst) }

func (in *inbox) reset() {
	in.dst = in.dst[:0]
	for i := range in.msg {
		in.msg[i] = nil // release references for the collector
	}
	in.msg = in.msg[:0]
}

// inboxSorter stable-sorts the parallel slices by destination vertex.
// Stability preserves (source worker, send order), which transports are
// required to present, keeping delivery deterministic.
type inboxSorter struct{ in *inbox }

func (s inboxSorter) Len() int           { return len(s.in.dst) }
func (s inboxSorter) Less(i, j int) bool { return s.in.dst[i] < s.in.dst[j] }
func (s inboxSorter) Swap(i, j int) {
	s.in.dst[i], s.in.dst[j] = s.in.dst[j], s.in.dst[i]
	s.in.msg[i], s.in.msg[j] = s.in.msg[j], s.in.msg[i]
}

type worker struct {
	id          int
	vertices    []*Vertex // sorted by ID
	in          inbox
	out         []outbox // per destination worker
	aggregators map[string]Aggregator
}

func (w *worker) clearOutboxes() {
	for d := range w.out {
		env := w.out[d].env
		for i := range env {
			env[i].msg = nil // release references for the collector
		}
		w.out[d].env = env[:0]
		if w.out[d].idx != nil {
			clear(w.out[d].idx)
		}
	}
}

// Engine is a configured computation over a fixed vertex set.
type Engine struct {
	opts        Options
	transport   Transport
	workers     []*worker
	vertexIndex map[VertexID]*Vertex
	aggregated  map[string]interface{}
	stats       Stats
}

// NewEngine builds an engine over the given vertices.
func NewEngine(opts Options, vertices []*Vertex) (*Engine, error) {
	if opts.Compute == nil {
		return nil, errors.New("pregel: Compute is required")
	}
	if opts.MaxSupersteps <= 0 {
		return nil, errors.New("pregel: MaxSupersteps must be > 0")
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.Transport == nil {
		opts.Transport = MemoryTransport()
	}
	e := &Engine{
		opts:        opts,
		transport:   opts.Transport,
		vertexIndex: make(map[VertexID]*Vertex, len(vertices)),
		aggregated:  map[string]interface{}{},
	}
	e.workers = make([]*worker, opts.Workers)
	for i := range e.workers {
		w := &worker{
			id:          i,
			out:         make([]outbox, opts.Workers),
			aggregators: map[string]Aggregator{},
		}
		if opts.Combiner != nil {
			for d := range w.out {
				w.out[d].idx = map[VertexID]int{}
			}
		}
		e.workers[i] = w
	}
	for _, v := range vertices {
		if _, dup := e.vertexIndex[v.ID]; dup {
			return nil, fmt.Errorf("pregel: duplicate vertex id %d", v.ID)
		}
		e.vertexIndex[v.ID] = v
		w := e.workerOf(v.ID)
		e.workers[w].vertices = append(e.workers[w].vertices, v)
	}
	for _, w := range e.workers {
		// Sort by id so superstep execution order and the inbox merge-join
		// are both deterministic regardless of input order.
		sort.Slice(w.vertices, func(i, j int) bool { return w.vertices[i].ID < w.vertices[j].ID })
	}
	return e, nil
}

// workerOf shards a vertex id to a worker (multiplicative hash so dense id
// ranges spread evenly, like Giraph's random vertex placement).
func (e *Engine) workerOf(id VertexID) int {
	h := uint64(id) * 0x9E3779B97F4A7C15
	return int(h % uint64(len(e.workers)))
}

// Run executes supersteps until every vertex halts with no pending messages,
// the master requests a halt, or MaxSupersteps is reached. It returns run
// statistics.
//
// With a Checkpointer configured, the engine snapshots its full barrier
// state (vertex states, halted flags, pending inboxes, merged aggregators,
// master blob) at superstep 0 and every CheckpointEvery supersteps, and a
// *WorkerFailure during an exchange rolls every worker back to the latest
// snapshot and replays. Because compute is deterministic given barrier
// state, the replayed run — and therefore Run's result — is byte-identical
// to an undisturbed one (only Stats.Recoveries/RetriedFrames betray the
// faults). Exchange errors wrapping ErrTransient are retried in place with
// exponential backoff first; anything else escalates to recovery.
func (e *Engine) Run() (*Stats, error) {
	if err := e.transport.start(e); err != nil {
		return nil, err
	}
	defer e.transport.close()

	every := e.opts.CheckpointEvery
	if every <= 0 {
		every = 64
	}
	maxRecoveries := e.opts.MaxRecoveries
	if maxRecoveries <= 0 {
		maxRecoveries = 8
	}
	if e.opts.Checkpointer != nil {
		if err := e.checkpoint(0); err != nil {
			return nil, err
		}
	}

	for step := 0; step < e.opts.MaxSupersteps; {
		active := 0
		maxWorkerActive := 0
		for _, w := range e.workers {
			wa := 0
			for _, v := range w.vertices {
				if !v.halted {
					wa++
				}
			}
			wa += w.in.len()
			if wa > maxWorkerActive {
				maxWorkerActive = wa
			}
			active += wa
		}
		if active == 0 {
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

		// Barrier: account outboxes (post sender-side combining, so these
		// are the counts that actually cross the transport), exchange, and
		// merge aggregators.
		ss := SuperstepStats{Superstep: step, ActiveVertices: active, MaxWorkerActive: maxWorkerActive}
		for _, w := range e.workers {
			for d := range w.out {
				n := int64(len(w.out[d].env))
				ss.MessagesSent += n
				if d != w.id {
					ss.RemoteMessages += n
				}
			}
		}
		wireBytes, err := e.exchangeWithRetry(step)
		if err != nil {
			restored, rerr := e.recoverFrom(err, step, maxRecoveries)
			if rerr != nil {
				return nil, rerr
			}
			step = restored
			continue
		}
		ss.BytesSent = wireBytes

		// Merge worker aggregators worker-major, name-ascending: merge order
		// must never depend on Go map layout, because Merge implementations
		// may be order-sensitive (distshp's proposalAgg adopts histogram
		// pointers on first sight).
		merged := map[string]Aggregator{}
		var mergedNames []string
		for _, w := range e.workers {
			names := make([]string, 0, len(w.aggregators))
			for name := range w.aggregators {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				agg := w.aggregators[name]
				// Aggregator wire accounting: what each worker's accumulated
				// value would cost to ship to the master, summed before the
				// in-process merge collapses it.
				if ws, ok := agg.(WireSizer); ok {
					ss.AggBytes += int64(ws.WireSize())
				}
				if m, ok := merged[name]; ok {
					m.Merge(agg)
				} else {
					merged[name] = agg
					mergedNames = append(mergedNames, name)
				}
			}
			w.aggregators = map[string]Aggregator{}
		}
		sort.Strings(mergedNames)
		e.aggregated = map[string]interface{}{}
		for _, name := range mergedNames {
			e.aggregated[name] = merged[name].Value()
		}

		e.stats.PerSuperstep = append(e.stats.PerSuperstep, ss)
		e.stats.Supersteps++
		e.stats.TotalMessages += ss.MessagesSent
		e.stats.RemoteMessages += ss.RemoteMessages
		e.stats.TotalBytes += ss.BytesSent
		e.stats.AggBytes += ss.AggBytes

		halt := false
		if e.opts.Master != nil {
			var set map[string]interface{}
			halt, set = e.opts.Master(step, e.aggregated)
			//shp:ordered(distinct keys written into a map; insertion order is unobservable)
			for name, v := range set {
				e.aggregated[name] = v
			}
		}
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
	return &e.stats, nil
}

// runWorkerSafe runs one worker, converting *AggregatorError panics from
// misused aggregators into a typed *ComputeError; any other panic is a
// genuine bug and propagates with its original stack.
func (e *Engine) runWorkerSafe(w *worker, step int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if ae, ok := r.(*AggregatorError); ok {
				err = &ComputeError{Worker: w.id, Superstep: step, Err: ae}
				return
			}
			panic(r)
		}
	}()
	e.runWorker(w, step)
	return nil
}

// exchangeWithRetry runs the transport exchange, retrying in place (with
// exponential backoff plus deterministic jitter) when the failure is marked
// transient — i.e. the transport guarantees the attempt had no side effect.
func (e *Engine) exchangeWithRetry(step int) (int64, error) {
	retries := e.opts.ExchangeRetries
	if retries <= 0 {
		retries = 3
	}
	backoff := e.opts.RetryBackoff
	if backoff <= 0 {
		backoff = 500 * time.Microsecond
	}
	for attempt := 0; ; attempt++ {
		nb, err := e.transport.exchange(e, step)
		if err == nil {
			return nb, nil
		}
		if !errors.Is(err, ErrTransient) || attempt >= retries {
			return 0, err
		}
		e.stats.RetriedFrames++
		delay := backoff << attempt
		jitter := time.Duration(rng.Mix(uint64(step), uint64(attempt)) % uint64(backoff))
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
func (e *Engine) recoverFrom(err error, step, maxRecoveries int) (int, error) {
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
	if serr := e.transport.start(e); serr != nil {
		return 0, fmt.Errorf("pregel: transport restart after recovery: %w", serr)
	}
	return snapStep, nil
}

// runWorker executes one worker's vertices for one superstep. Inbound
// messages are sorted into contiguous per-vertex runs and delivered by a
// merge-join against the id-sorted vertex list.
func (e *Engine) runWorker(w *worker, step int) {
	if w.in.len() > 0 {
		sort.Stable(inboxSorter{&w.in})
		if comb := e.opts.Combiner; comb != nil {
			// Receiver-side pass: sender-side combining already folded each
			// worker's own traffic, this folds across source workers.
			o := 0
			for i := 1; i < w.in.len(); i++ {
				if w.in.dst[i] == w.in.dst[o] {
					w.in.msg[o] = comb(w.in.msg[o], w.in.msg[i])
				} else {
					o++
					w.in.dst[o] = w.in.dst[i]
					w.in.msg[o] = w.in.msg[i]
				}
			}
			for i := o + 1; i < len(w.in.msg); i++ {
				w.in.msg[i] = nil
			}
			w.in.dst = w.in.dst[:o+1]
			w.in.msg = w.in.msg[:o+1]
		}
	}
	ctx := &Context{engine: e, worker: w, superstep: step}
	i, n := 0, w.in.len()
	for _, v := range w.vertices {
		for i < n && w.in.dst[i] < v.ID {
			i++ // message to an absent id: dropped, as before
		}
		j := i
		for j < n && w.in.dst[j] == v.ID {
			j++
		}
		msgs := w.in.msg[i:j:j]
		i = j
		if v.halted && len(msgs) == 0 {
			continue
		}
		v.halted = false
		ctx.vertex = v
		e.opts.Compute(ctx, v, msgs)
	}
	w.in.reset()
}

// Vertex returns the vertex with the given id (nil if absent). Intended for
// result extraction after Run.
func (e *Engine) Vertex(id VertexID) *Vertex { return e.vertexIndex[id] }

// Workers returns the configured worker count.
func (e *Engine) Workers() int { return len(e.workers) }
