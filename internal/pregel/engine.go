package pregel

import (
	"errors"
	"fmt"
	"math"
	"slices"
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

// placement is where the engine put a vertex: its worker and its index in
// that worker's id-sorted vertex list. The table is built once in NewEngine
// and indexed by vertex id, so neither Send nor delivery hashes anything.
type placement struct {
	worker int32
	local  int32
}

// outbox buffers one worker's messages for one destination worker. When a
// combiner is configured, slot is indexed by the destination's local index
// and holds position+1 in env of the (single) combined message for that
// vertex, 0 for none, so Send folds into it with one load and one store —
// Giraph's sender-side combining, which is what actually reduces wire
// traffic. Only entries env names are ever non-zero, so clearing walks env.
type outbox struct {
	env  []envelope
	slot []int32
}

// inbox holds a worker's received messages grouped by destination: local
// vertex l's messages are msg[start[l]:start[l+1]], in (source worker, send
// order). Offsets are int32, which bounds one worker's superstep at 2^31
// messages. start has two entries more than the worker has vertices; the
// last one is scratch for the counting scatter in Engine.deliver.
type inbox struct {
	start []int32
	msg   []Message
}

func (in *inbox) len() int { return len(in.msg) }

func (in *inbox) reset() {
	clear(in.start)
	clear(in.msg) // release references for the collector
	in.msg = in.msg[:0]
}

type worker struct {
	id          int
	vertices    []*Vertex // sorted by ID
	in          inbox
	out         []outbox // per destination worker
	aggregators map[string]Aggregator
}

// Engine is a configured computation over a fixed vertex set.
type Engine struct {
	opts       Options
	transport  Transport
	workers    []*worker
	place      []placement // by vertex id
	aggregated map[string]interface{}
	stats      Stats
}

func (e *Engine) clearOutboxes(w *worker) {
	for d := range w.out {
		ob := &w.out[d]
		if ob.slot != nil {
			for _, env := range ob.env {
				ob.slot[e.place[env.dst].local] = 0
			}
		}
		clear(ob.env) // release references for the collector
		ob.env = ob.env[:0]
	}
}

// NewEngine builds an engine over the given vertices, whose ids must be
// exactly 0..len(vertices)-1 in any order.
func NewEngine(opts Options, vertices []*Vertex) (*Engine, error) {
	if opts.Compute == nil {
		return nil, errors.New("pregel: Compute is required")
	}
	if opts.MaxSupersteps <= 0 {
		return nil, errors.New("pregel: MaxSupersteps must be > 0")
	}
	if len(vertices) > math.MaxInt32 {
		return nil, fmt.Errorf("pregel: %d vertices exceed the engine's int32 placement table", len(vertices))
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.Transport == nil {
		opts.Transport = MemoryTransport()
	}
	e := &Engine{
		opts:       opts,
		transport:  opts.Transport,
		place:      make([]placement, len(vertices)),
		aggregated: map[string]interface{}{},
	}
	e.workers = make([]*worker, opts.Workers)
	for i := range e.workers {
		e.workers[i] = &worker{
			id:          i,
			out:         make([]outbox, opts.Workers),
			aggregators: map[string]Aggregator{},
		}
	}
	byID := make([]*Vertex, len(vertices))
	for _, v := range vertices {
		if v.ID < 0 || v.ID >= VertexID(len(vertices)) {
			return nil, fmt.Errorf("pregel: vertex id %d outside [0, %d): ids must be dense", v.ID, len(vertices))
		}
		if byID[v.ID] != nil {
			return nil, fmt.Errorf("pregel: duplicate vertex id %d", v.ID)
		}
		byID[v.ID] = v
	}
	// Walking ids in ascending order leaves every worker's list sorted by
	// id, so superstep execution order is deterministic regardless of input
	// order, and a vertex's local index is its position in that list.
	for id, v := range byID {
		w := e.workers[e.workerOf(VertexID(id))]
		e.place[id] = placement{worker: int32(w.id), local: int32(len(w.vertices))}
		w.vertices = append(w.vertices, v)
	}
	for _, w := range e.workers {
		w.in.start = make([]int32, len(w.vertices)+2)
		if opts.Combiner != nil {
			for _, src := range e.workers {
				src.out[w.id].slot = make([]int32, len(w.vertices))
			}
		}
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

// runWorkerSafe runs one worker, converting the typed panics of a misused
// Context — *AggregatorError from Aggregate, *sendError from Send — into a
// *ComputeError; any other panic is a genuine bug and propagates with its
// original stack.
func (e *Engine) runWorkerSafe(w *worker, step int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			switch r.(type) {
			case *AggregatorError, *sendError:
				err = &ComputeError{Worker: w.id, Superstep: step, Err: r.(error)}
			default:
				panic(r)
			}
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

// deliver fills worker w's inbox from this superstep's traffic, from(src)
// being the envelopes source worker src addressed to w in send order. A
// stable counting pass — count per destination, prefix-sum, scatter — walks
// the sources in worker order twice and writes each message once, straight
// into its destination's group; there is no ungrouped intermediate. The
// inbox must be empty (runWorker leaves it so).
func (e *Engine) deliver(w *worker, from func(src int) []envelope) {
	// Counts go in two entries up, so that after the prefix sum start[l+1]
	// is where vertex l's group begins; the scatter advances it to where the
	// group ends, which is where start[l] already says the next one begins.
	start := w.in.start
	for src := range e.workers {
		for _, env := range from(src) {
			start[e.place[env.dst].local+2]++
		}
	}
	for l := 2; l < len(start); l++ {
		start[l] += start[l-1]
	}
	total := int(start[len(start)-1])
	w.in.msg = slices.Grow(w.in.msg, total)[:total]
	for src := range e.workers {
		for _, env := range from(src) {
			at := &start[e.place[env.dst].local+1]
			w.in.msg[*at] = env.msg
			*at++
		}
	}
}

// runWorker executes one worker's vertices for one superstep, handing each
// its group of the inbox.
func (e *Engine) runWorker(w *worker, step int) {
	ctx := &Context{engine: e, worker: w, superstep: step}
	comb := e.opts.Combiner
	for l, v := range w.vertices {
		lo, hi := w.in.start[l], w.in.start[l+1]
		msgs := w.in.msg[lo:hi:hi]
		if comb != nil && len(msgs) > 1 {
			// Receiver-side pass: sender-side combining already folded each
			// worker's own traffic, this folds across source workers.
			for _, m := range msgs[1:] {
				msgs[0] = comb(msgs[0], m)
			}
			msgs = msgs[:1:1]
		}
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
func (e *Engine) Vertex(id VertexID) *Vertex {
	if id < 0 || id >= VertexID(len(e.place)) {
		return nil
	}
	p := e.place[id]
	return e.workers[p.worker].vertices[p.local]
}

// Workers returns the configured worker count.
func (e *Engine) Workers() int { return len(e.workers) }
