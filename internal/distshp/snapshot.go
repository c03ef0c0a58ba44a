package distshp

// The run's checkpoint plane. A checkpoint is taken only at an iteration's
// superstep 0 (Partition sets the engine's cadence to a multiple of the four
// supersteps of an iteration), where no message is pending — the engine
// snapshots only such barriers, and its snapshot holds no message, and no
// halted flag, since the engine holds no vertex — and everything but each
// data vertex's bucket is an exact integer function of the assignment, the
// level, the iteration and the seed. So a snapshot holds per worker each of
// its data vertices' bucket, nothing of its queries, and the master's level,
// iteration and history.
//
// A restore rebuilds the rest through the level-start registration that
// already exists: every data vertex is a mover (each worker's mover list
// holds all of its vertices) with nothing proposed, every query
// unregistered, the master's proposal plane empty. The replayed
// iteration's superstep 0 then ships every bucket to every worker that
// hosts one of the vertex's queries, superstep 1's worker hooks register
// every query from all its members' records (the live entries re-sum into
// the master's fanout count), the queries send full gains, and superstep 2
// registers every proposal afresh. Gains are integers, so what this re-derives is what
// the undisturbed run maintained, and the recovered run finishes
// byte-identical to it. A worker's proposal table may hold the deltas of a
// proposal superstep whose exchange failed; its hook empties it before the
// replayed one fills it.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"shp/internal/core"
	"shp/internal/hypergraph"
	"shp/internal/pregel"
)

// schedule is the master's state across supersteps, including every value
// the vertices read from it (level, iter, rebuildNext, probs). The master
// writes it only between supersteps. A snapshot holds level, iter and
// history; the rest is refilled by the replayed iteration.
type schedule struct {
	// Run constants, set once by Partition.
	opts   Options
	levels int
	ideal  float64 // a bucket's share of the data weight at K buckets

	level int
	iter  int
	// rebuildNext schedules a full superstep-1 gain rebroadcast for the
	// next iteration (a sweep). It stays set through that superstep 1,
	// whose queries read it.
	rebuildNext bool
	// ndEntries is the global live-entry total of the query histograms,
	// maintained from per-query diffs; /numQ is the average fanout.
	ndEntries int64
	// hists and weights are the persistent proposal-plane state: per-
	// direction gain histograms and per-bucket weight totals, maintained
	// from the vertices' assert/retract deltas each proposal superstep
	// and reset at level start (where every vertex proposes afresh). A
	// direction, "from bucket b to its sibling b^1", is indexed by b, and
	// all three tables span the level's 2^(level+1) buckets.
	hists   []core.DirHist
	weights []int64
	// probs are the per-direction move probabilities superstep 3 reads.
	probs   []core.ProbTable
	history []IterRecord
}

// appendBinary encodes the schedule's level, iteration and history onto
// buf, as varints (a fanout as its bits).
func (s *schedule) appendBinary(buf []byte) []byte {
	buf = binary.AppendVarint(buf, int64(s.level))
	buf = binary.AppendVarint(buf, int64(s.iter))
	buf = binary.AppendVarint(buf, int64(len(s.history)))
	for _, rec := range s.history {
		buf = binary.AppendVarint(buf, int64(rec.Level))
		buf = binary.AppendVarint(buf, int64(rec.Iter))
		buf = binary.AppendVarint(buf, rec.Moved)
		buf = binary.AppendVarint(buf, int64(math.Float64bits(rec.Fanout)))
	}
	return buf
}

// decode returns the schedule a master blob holds, on s's run constants and
// with an empty proposal plane, leaving s alone.
func (s *schedule) decode(data []byte) (*schedule, error) {
	d := &decoder{data: data}
	r := &schedule{opts: s.opts, levels: s.levels, ideal: s.ideal,
		level: int(d.varint()), iter: int(d.varint())}
	n := d.varint()
	if n < 0 || n > int64(len(d.data))/4 { // each record is >= 4 bytes
		return nil, fmt.Errorf("distshp: schedule snapshot: history count %d exceeds payload", n)
	}
	r.history = make([]IterRecord, n)
	for i := range r.history {
		r.history[i] = IterRecord{Level: int(d.varint()), Iter: int(d.varint()), Moved: d.varint(),
			Fanout: math.Float64frombits(uint64(d.varint()))}
	}
	if d.err != nil {
		return nil, fmt.Errorf("distshp: schedule snapshot: %w", d.err)
	}
	if len(d.data) != 0 {
		return nil, fmt.Errorf("distshp: schedule snapshot: %d trailing bytes", len(d.data))
	}
	if r.level < 0 || r.level >= r.levels || r.iter < 0 || r.iter >= r.opts.ItersPerLevel {
		return nil, fmt.Errorf("distshp: schedule snapshot: level %d, iteration %d out of range", r.level, r.iter)
	}
	r.resetPlane()
	return r, nil
}

// decoder is a cursor over snapshot varints with a sticky error, so decode
// paths read linearly instead of threading errors through every call.
type decoder struct {
	data []byte
	err  error
}

// varint reads a varint in the bytes binary.AppendVarint writes for it, so
// what decodes re-encodes to the bytes it came from.
func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data)
	if n <= 0 {
		d.err = errors.New("truncated varint")
		return 0
	}
	if n != uvarintLen(uint64(v)<<1^uint64(v>>63)) {
		d.err = fmt.Errorf("varint %d is not minimally encoded", v)
		return 0
	}
	d.data = d.data[n:]
	return v
}

// runState is a run's program state: the data and query slabs, indexed by
// id, each worker's mirror table, fold, proposal table and data vertex
// lists, the worker that hosts each data vertex, and the master's schedule.
// It is the engine's checkpoint hook.
type runState struct {
	data    []dataState
	query   []queryState
	mirrors []mirror
	props   []proposals
	host    []int32 // by data id: pregel.HashWorker's placement
	// Per worker, the data vertices it hosts, those that moved in the last
	// superstep 3 (both ascending) and those hear added a record into.
	hosted, movers, heard [][]int32
	sched                 *schedule
}

// newRunState returns the state of a run over g before its first superstep,
// with query q on the worker the engine would place vertex |D|+q on.
func newRunState(g *hypergraph.Bipartite, sched *schedule) *runState {
	k, numD, workers := sched.opts.K, g.NumData(), sched.opts.Workers
	s := &runState{sched: sched, data: make([]dataState, numD),
		query: newQueryStates(g.NumQueries(), k, func(q int) int { return g.QueryDegree(int32(q)) }),
		mirrors: newMirrors(g, k, workers, func(q int32) int {
			return pregel.HashWorker(pregel.VertexID(numD+int(q)), workers)
		}),
		props: make([]proposals, workers), host: make([]int32, numD),
		hosted: make([][]int32, workers), movers: make([][]int32, workers), heard: make([][]int32, workers)}
	for d := range s.host {
		w := pregel.HashWorker(pregel.VertexID(d), workers)
		s.host[d] = int32(w)
		s.hosted[w] = append(s.hosted[w], int32(d))
	}
	for w := range s.mirrors {
		if m := &s.mirrors[w]; sched.opts.noFold {
			m.fold = gainFold{host: s.host, plain: true}
		} else {
			m.fold = newGainFold(s.host)
		}
	}
	for d := range s.data {
		s.data[d] = dataState{bucket: -1, propLevel: -1}
	}
	return s
}

// AppendWorker encodes the buckets of worker w's data vertices, ascending.
func (s *runState) AppendWorker(buf []byte, w int) []byte {
	for _, d := range s.hosted[w] {
		buf = binary.AppendVarint(buf, int64(s.data[d].bucket))
	}
	return buf
}

// AppendMaster encodes the schedule.
func (s *runState) AppendMaster(buf []byte) []byte { return s.sched.appendBinary(buf) }

// Restore decodes the master blob and every part and, only once all of them
// have parsed, rewinds the run to the start of the snapshot's iteration, the
// way the file comment describes. A data vertex holds the previous level's
// bucket at a level start and the current one's otherwise; a bucket outside
// that level's range (anything but -1 before level 0) is refused.
func (s *runState) Restore(parts [][]byte, master []byte) error {
	sched, err := s.sched.decode(master)
	if err != nil {
		return err
	}
	level := sched.level
	if sched.iter == 0 {
		level--
	}
	lo, hi := int64(-1), int64(0)
	if level >= 0 {
		lo, hi = 0, 2<<level
	}
	buckets := make([]int32, len(s.data))
	for w, ids := range s.hosted {
		d := &decoder{data: parts[w]}
		for _, id := range ids {
			b := d.varint()
			if d.err == nil && (b < lo || b >= hi) {
				return fmt.Errorf("distshp: vertex %d: bucket %d outside [%d, %d) at level %d", id, b, lo, hi, level)
			}
			buckets[id] = int32(b)
		}
		if d.err != nil {
			return fmt.Errorf("distshp: worker %d state: %w", w, d.err)
		}
		if len(d.data) != 0 {
			return fmt.Errorf("distshp: worker %d state: %d trailing bytes", w, len(d.data))
		}
	}
	*s.sched = *sched
	for i, b := range buckets {
		s.data[i] = dataState{bucket: b, propLevel: -1}
	}
	for q := range s.query {
		st := &s.query[q]
		st.pairs, st.row = st.pairs[:0], st.row.Reshape(0)
	}
	for w := range s.mirrors {
		s.mirrors[w].level = -1
		s.movers[w] = append(s.movers[w][:0], s.hosted[w]...)
		s.heard[w] = s.heard[w][:0]
	}
	return nil
}
