package distshp

// The run's checkpoint plane. The engine snapshots only what it owns (halted
// flags, pending inboxes); runState, its checkpoint hook, encodes the rest:
// per worker, each data vertex's dataState (the persistent integer gain
// accumulators included) and each query's level and registry, and the
// master's schedule (counters, persistent DirHist histograms, bucket
// weights, iteration history). A recovery resumes the *incremental* protocol
// exactly where the checkpoint left it: no rebroadcast, no resummation,
// byte-identical continuation.
//
// A query's sibling pairs and pin-count row are what its registry gives at
// every barrier, so a restore recounts them; it knows the query's degree, so
// it refuses a registry of another length or with an entry outside [0, K).
// Encodings are canonical (map keys sorted, fields in declaration order), so
// equal states produce byte-identical snapshots — the property
// FuzzCheckpointCodec and the restore-equality tests pin.

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"

	"shp/internal/core"
	"shp/internal/hypergraph"
	"shp/internal/pregel"
)

// schedule is the master's state across supersteps, including every value
// the vertices read from it (level, iter, rebuildNext, probs). The master
// writes it only between supersteps, and the checkpoint plane snapshots and
// restores it: rolling back vertices without rolling back the persistent
// histograms would desynchronize the proposal plane.
type schedule struct {
	// Run constants, set once by Partition.
	opts   Options
	levels int
	ideal  float64 // a bucket's share of the data weight at K buckets

	level      int
	iter       int
	phase      int // which of the 4 supersteps comes next
	iterations int
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
	// They derive from hists, weights and level, so no snapshot holds them:
	// a restore at phase 3 recomputes them.
	probs   map[uint64]*core.ProbTable
	history []IterRecord
}

// appendBinary encodes the schedule canonically onto buf.
func (s *schedule) appendBinary(buf []byte) []byte {
	buf = binary.AppendVarint(buf, int64(s.level))
	buf = binary.AppendVarint(buf, int64(s.iter))
	buf = binary.AppendVarint(buf, int64(s.phase))
	buf = binary.AppendVarint(buf, int64(s.iterations))
	if s.rebuildNext {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendVarint(buf, s.ndEntries)
	buf = appendHistMap(buf, s.hists)
	buf = appendWeightMap(buf, s.weights)
	buf = binary.AppendUvarint(buf, uint64(len(s.history)))
	for _, rec := range s.history {
		buf = binary.AppendVarint(buf, int64(rec.Level))
		buf = binary.AppendVarint(buf, int64(rec.Iter))
		buf = binary.AppendVarint(buf, rec.Moved)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rec.Fanout))
	}
	return buf
}

// restoreBinary replaces the schedule's state with a decoded snapshot, all
// or nothing: it decodes into a fresh schedule and commits it only once
// every byte has parsed. The maps are fresh too — the master adopts
// histograms out of the aggregate's parts, so restored state must never
// alias a live one.
func (s *schedule) restoreBinary(data []byte) error {
	d := &decoder{data: data}
	r := &schedule{opts: s.opts, levels: s.levels, ideal: s.ideal}
	r.level = int(d.varint())
	r.iter = int(d.varint())
	r.phase = int(d.varint())
	r.iterations = int(d.varint())
	r.rebuildNext = d.byte() != 0
	r.ndEntries = d.varint()
	r.hists = d.histMap()
	r.weights = d.weightMap()
	n := d.uvarint()
	if n > uint64(len(d.data)) { // each record is >= 11 bytes
		return fmt.Errorf("distshp: schedule snapshot: history count %d exceeds payload", n)
	}
	r.history = make([]IterRecord, 0, n)
	for i := uint64(0); i < n; i++ {
		rec := IterRecord{
			Level: int(d.varint()),
			Iter:  int(d.varint()),
			Moved: d.varint(),
		}
		rec.Fanout = math.Float64frombits(d.u64())
		r.history = append(r.history, rec)
	}
	if d.err != nil {
		return fmt.Errorf("distshp: schedule snapshot: %w", d.err)
	}
	if len(d.data) != 0 {
		return fmt.Errorf("distshp: schedule snapshot: %d trailing bytes", len(d.data))
	}
	if r.level < 0 || r.level >= r.levels || r.phase < 0 || r.phase > 3 {
		return fmt.Errorf("distshp: schedule snapshot: level %d, phase %d out of range", r.level, r.phase)
	}
	if r.phase == 3 {
		r.match()
	}
	*s = *r
	return nil
}

// decoder is a cursor over snapshot bytes with sticky error handling, so
// decode paths read linearly instead of threading errors through every call.
type decoder struct {
	data []byte
	err  error
}

func (d *decoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("%s", msg)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data)
	if n <= 0 {
		d.fail("truncated uvarint")
		return 0
	}
	d.data = d.data[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data)
	if n <= 0 {
		d.fail("truncated varint")
		return 0
	}
	d.data = d.data[n:]
	return v
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.data) == 0 {
		d.fail("truncated byte")
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.data) < 8 {
		d.fail("truncated u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.data)
	d.data = d.data[8:]
	return v
}

// bucket reads a bucket id and fails unless it is -1 or in [0, k).
func (d *decoder) bucket(k int) int32 {
	b := d.varint()
	if b < -1 || b >= int64(k) {
		d.fail(fmt.Sprintf("bucket %d outside [-1, %d)", b, k))
		return -1
	}
	return int32(b)
}

func (d *decoder) histMap() map[uint64]*core.DirHist {
	n := d.uvarint()
	if n > uint64(len(d.data)) { // each entry is >= 2 bytes
		d.fail("histogram map count exceeds payload")
		return nil
	}
	m := make(map[uint64]*core.DirHist, n)
	for i := uint64(0); i < n; i++ {
		key := d.uvarint()
		if d.err != nil {
			return m
		}
		h, used, err := core.DecodeDirHist(d.data)
		if err != nil {
			d.err = err
			return m
		}
		d.data = d.data[used:]
		m[key] = &h
	}
	return m
}

func (d *decoder) weightMap() map[int32]int64 {
	n := d.uvarint()
	if n > uint64(len(d.data)) { // each entry is >= 2 bytes
		d.fail("weight map count exceeds payload")
		return nil
	}
	m := make(map[int32]int64, n)
	for i := uint64(0); i < n; i++ {
		b := int32(d.varint())
		m[b] = d.varint()
	}
	return m
}

func appendHistMap(buf []byte, m map[uint64]*core.DirHist) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(m)))
	for _, k := range slices.Sorted(maps.Keys(m)) {
		buf = binary.AppendUvarint(buf, k)
		buf = m[k].AppendBinary(buf)
	}
	return buf
}

func appendWeightMap(buf []byte, m map[int32]int64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(m)))
	for _, k := range slices.Sorted(maps.Keys(m)) {
		buf = binary.AppendVarint(buf, int64(k))
		buf = binary.AppendVarint(buf, m[k])
	}
	return buf
}

// --- vertex states ---

// runState is a run's program state: the data and query slabs, indexed by
// vertex id (a query's by its id minus |D|), and the master's schedule. It
// is the engine's checkpoint hook. Every bucket a vertex state holds is
// below the run's K (a data vertex's is -1 before its first level), and a
// decoded state that breaks this is rejected instead of crashing the
// resumed run on a row index.
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

// AppendWorker encodes one worker's vertices' states, in the engine's order.
func (s *runState) AppendWorker(buf []byte, vertices []*pregel.Vertex) []byte {
	numD := pregel.VertexID(len(s.data))
	for _, v := range vertices {
		if v.ID < numD {
			buf = s.data[v.ID].appendBinary(buf)
		} else {
			buf = s.query[v.ID-numD].appendBinary(buf)
		}
	}
	return buf
}

// AppendMaster encodes the schedule.
func (s *runState) AppendMaster(buf []byte) []byte { return s.sched.appendBinary(buf) }

// Restore checks every part, restores the schedule (all or nothing), and
// only then writes the parts, which can no longer fail.
func (s *runState) Restore(workers [][]*pregel.Vertex, parts [][]byte, master []byte) error {
	if err := s.decodeParts(workers, parts, false); err != nil {
		return err
	}
	if err := s.sched.restoreBinary(master); err != nil {
		return err
	}
	return s.decodeParts(workers, parts, true)
}

// decodeParts decodes every worker's part, writing the slabs only with
// commit set.
func (s *runState) decodeParts(workers [][]*pregel.Vertex, parts [][]byte, commit bool) error {
	numD, k := pregel.VertexID(len(s.data)), s.sched.opts.K
	for w, vertices := range workers {
		d := &decoder{data: parts[w]}
		for _, v := range vertices {
			if v.ID < numD {
				s.data[v.ID].decode(d, k, commit)
			} else {
				s.query[v.ID-numD].decode(d, int32(v.ID-numD), k, commit)
			}
			if d.err != nil {
				return fmt.Errorf("distshp: vertex %d state: %w", v.ID, d.err)
			}
		}
		if len(d.data) != 0 {
			return fmt.Errorf("distshp: worker %d state: %d trailing bytes", w, len(d.data))
		}
	}
	return nil
}

func (st *dataState) appendBinary(buf []byte) []byte {
	buf = binary.AppendVarint(buf, int64(st.bucket))
	if st.moved {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendVarint(buf, int64(st.level))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.sumCur))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.sumOth))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.gain))
	buf = binary.AppendUvarint(buf, st.propKey)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.propGain))
	return binary.AppendVarint(buf, int64(st.propLevel))
}

// decode reads a data state of a run over k buckets, and with commit set
// installs it.
func (st *dataState) decode(d *decoder, k int, commit bool) {
	r := dataState{
		bucket: d.bucket(k), moved: d.byte() != 0, level: int(d.varint()),
		sumCur: int64(d.u64()), sumOth: int64(d.u64()), gain: int64(d.u64()),
		propKey: d.uvarint(), propGain: int64(d.u64()), propLevel: int(d.varint()),
	}
	if commit && d.err == nil {
		*st = r
	}
}

// appendBinary encodes the query's level and registry. The per-superstep
// scratch (snapshot row, mover flags, diff buffer) is empty at every
// barrier — resetSuperstep runs before the superstep ends on every path.
func (st *queryState) appendBinary(buf []byte) []byte {
	buf = binary.AppendVarint(buf, int64(st.level))
	buf = binary.AppendUvarint(buf, uint64(len(st.memberBucket)))
	for _, b := range st.memberBucket {
		buf = binary.AppendVarint(buf, int64(b))
	}
	return buf
}

// RegistryError is a checkpointed query registry that is not one bucket in
// [0, K) per member, which a resumed run would index past or miscount.
type RegistryError struct {
	Query  int32  // the query's index among the queries
	Degree int    // its member count
	Len    uint64 // the registry's length
	Bucket int64  // with Len == Degree, the first entry outside [0, K)
}

func (e *RegistryError) Error() string {
	if e.Len != uint64(e.Degree) {
		return fmt.Sprintf("query %d: registry of %d entries for %d members", e.Query, e.Len, e.Degree)
	}
	return fmt.Sprintf("query %d: registry holds bucket %d", e.Query, e.Bucket)
}

// decode reads query q's level and registry, checked against its degree —
// the length of the registry it was carved with — and the run's k buckets.
// With commit set it installs them and recounts the row, empty while the
// query is unregistered.
func (st *queryState) decode(d *decoder, q int32, k int, commit bool) {
	degree := len(st.memberBucket)
	level := int(d.varint())
	if n := d.uvarint(); d.err == nil && n != uint64(degree) {
		d.err = &RegistryError{Query: q, Degree: degree, Len: n}
	}
	for i := 0; i < degree && d.err == nil; i++ {
		switch b := d.varint(); {
		case d.err != nil:
		case b < 0 || b >= int64(k):
			d.err = &RegistryError{Query: q, Degree: degree, Len: uint64(degree), Bucket: b}
		case commit:
			st.memberBucket[i] = int32(b)
		}
	}
	if !commit || d.err != nil {
		return
	}
	if st.level = level; level >= 0 {
		st.recount()
	} else {
		st.pairs, st.row, st.snap = st.pairs[:0], st.row.Reshape(0), st.snap.Reshape(0)
	}
}
