package distshp

// The run's checkpoint plane. A checkpoint is taken only at an iteration's
// superstep 0 (Partition sets the engine's cadence to a multiple of the four
// supersteps of an iteration), where no message is pending and everything
// but each data vertex's bucket is an exact integer function of the
// assignment, the level, the iteration and the seed. So a snapshot holds per
// worker each data vertex's bucket, nothing of its queries, and the master's
// level, iteration and history.
//
// A restore rebuilds the rest through the level-start registration that
// already exists: every data vertex is marked moved with nothing proposed,
// every query unregistered, the master's proposal plane empty. The replayed
// iteration's superstep 0 then ships every bucket to every worker that
// hosts one of the vertex's queries, superstep 1's worker hooks register
// every query from all its members' records (the live entries re-sum into
// the master's fanout count), the queries send full gains, and superstep 2
// registers every proposal afresh. Gains are integers, so what this re-derives is what
// the undisturbed run maintained, and the recovered run finishes
// byte-identical to it. (The one difference, a histogram the undisturbed
// run retracted to zero, which the restored map lacks, belongs to an empty
// bucket; matching its pair against an empty side gives the nonempty side
// the same table either way.)

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
	// and reset at level start (where every vertex proposes afresh).
	hists   map[uint64]*core.DirHist
	weights map[int32]int64
	// probs are the per-direction move probabilities superstep 3 reads.
	probs   map[uint64]*core.ProbTable
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
		level: int(d.varint()), iter: int(d.varint()),
		hists: map[uint64]*core.DirHist{}, weights: map[int32]int64{}}
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
	return r, nil
}

// decoder is a cursor over snapshot varints with a sticky error, so decode
// paths read linearly instead of threading errors through every call.
type decoder struct {
	data []byte
	err  error
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data)
	if n <= 0 {
		d.err = errors.New("truncated varint")
		return 0
	}
	d.data = d.data[n:]
	return v
}

// runState is a run's program state: the data and query slabs, indexed by
// vertex id (a query's by its id minus |D|), and the master's schedule. It
// is the engine's checkpoint hook.
type runState struct {
	data  []dataState
	query []queryState
	sched *schedule
}

// newRunState returns the state of a run over g before its first superstep.
func newRunState(g *hypergraph.Bipartite, sched *schedule) *runState {
	k := sched.opts.K
	s := &runState{sched: sched, data: make([]dataState, g.NumData()),
		query: newQueryStates(g.NumQueries(), k, func(q int) int { return g.QueryDegree(int32(q)) })}
	for d := range s.data {
		s.data[d] = dataState{bucket: -1, level: -1, propLevel: -1}
	}
	return s
}

// AppendWorker encodes the buckets of one worker's data vertices, in the
// engine's order.
func (s *runState) AppendWorker(buf []byte, vertices []*pregel.Vertex) []byte {
	for _, v := range vertices {
		if v.ID < pregel.VertexID(len(s.data)) {
			buf = binary.AppendVarint(buf, int64(s.data[v.ID].bucket))
		}
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
func (s *runState) Restore(workers [][]*pregel.Vertex, parts [][]byte, master []byte) error {
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
	numD := pregel.VertexID(len(s.data))
	buckets := make([]int32, numD)
	for w, vertices := range workers {
		d := &decoder{data: parts[w]}
		for _, v := range vertices {
			if v.ID >= numD {
				continue
			}
			b := d.varint()
			if d.err == nil && (b < lo || b >= hi) {
				return fmt.Errorf("distshp: vertex %d: bucket %d outside [%d, %d) at level %d", v.ID, b, lo, hi, level)
			}
			buckets[v.ID] = int32(b)
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
		s.data[i] = dataState{bucket: b, moved: true, level: level, propLevel: -1}
	}
	for q := range s.query {
		st := &s.query[q]
		st.level, st.pairs, st.row, st.snap = -1, st.pairs[:0], st.row.Reshape(0), st.snap.Reshape(0)
	}
	return nil
}
