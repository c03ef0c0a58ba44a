package distshp

// Snapshot codecs for the fault-tolerance plane: everything a distributed
// run holds across a superstep barrier — per-vertex dataState (including the
// persistent dyadic-grid accumulators), per-vertex queryState, and the
// master's schedule (level and iteration counters, persistent DirHist
// histograms, bucket weights, iteration history) — encodes through these, so
// a recovery resumes the *incremental* protocol exactly where the checkpoint
// left it: no rebroadcast, no resummation, byte-identical continuation.
//
// A query snapshot holds only its level and member registry. Its sibling
// pairs and pin-count row are what the registry's entries >= 0 give at every
// barrier, so a restore recounts them, and neither state stores its id: both
// derive from the vertex id.
//
// Every encoding here is canonical (map keys sorted, struct fields in
// declaration order), so equal states produce byte-identical snapshots —
// the property FuzzCheckpointCodec and the restore-equality tests pin.

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"

	"shp/internal/core"
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
	// next iteration (sweep fallback / safety net of the incremental
	// plane). It stays set through that superstep 1, whose queries read it.
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

// --- vertex-state codecs ---

// The vertex-state codecs know the run's K: every bucket a state holds is
// -1 (unregistered) or below K, and a decoded state that breaks this is
// rejected instead of crashing the resumed run on a row index.

type dataStateCodec struct{ k int }

func (dataStateCodec) Append(buf []byte, m any) ([]byte, error) {
	st := m.(*dataState)
	buf = binary.AppendVarint(buf, int64(st.bucket))
	if st.moved {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendVarint(buf, int64(st.level))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(st.sumCur))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(st.sumOth))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(st.gain))
	buf = binary.AppendUvarint(buf, st.propKey)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(st.propGain))
	buf = binary.AppendVarint(buf, int64(st.propLevel))
	return buf, nil
}

func (c dataStateCodec) Decode(data []byte) (any, int, error) {
	d := &decoder{data: data}
	st := &dataState{}
	st.bucket = d.bucket(c.k)
	st.moved = d.byte() != 0
	st.level = int(d.varint())
	st.sumCur = math.Float64frombits(d.u64())
	st.sumOth = math.Float64frombits(d.u64())
	st.gain = math.Float64frombits(d.u64())
	st.propKey = d.uvarint()
	st.propGain = math.Float64frombits(d.u64())
	st.propLevel = int(d.varint())
	if d.err != nil {
		return nil, 0, fmt.Errorf("distshp: dataState snapshot: %w", d.err)
	}
	return st, len(data) - len(d.data), nil
}

func (c dataStateCodec) Size(m any) int {
	buf, _ := c.Append(nil, m)
	return len(buf)
}

type queryStateCodec struct{ k int }

// Append encodes the query's durable state: its level and member registry.
// The pairs and row are the registry's tally at every barrier, so they are
// not stored; the per-superstep scratch (snapshot row, mover flags, diff
// buffer) is logically empty at every barrier — resetSuperstep runs before
// the superstep ends on every path — so it is omitted and reallocated on
// restore.
func (queryStateCodec) Append(buf []byte, m any) ([]byte, error) {
	st := m.(*queryState)
	buf = binary.AppendVarint(buf, int64(st.level))
	// memberBucket nil (never registered) and empty (registered, zero
	// degree) differ: register() only allocates when nil.
	if st.memberBucket == nil {
		buf = binary.AppendUvarint(buf, 0)
	} else {
		buf = binary.AppendUvarint(buf, uint64(len(st.memberBucket))+1)
		for _, b := range st.memberBucket {
			buf = binary.AppendVarint(buf, int64(b))
		}
	}
	return buf, nil
}

// Decode restores the level and registry and recounts the pairs and row
// from the registry, so a restored row can never disagree with it.
func (c queryStateCodec) Decode(data []byte) (any, int, error) {
	d := &decoder{data: data}
	st := &queryState{}
	st.level = int(d.varint())
	nMB := d.uvarint()
	if nMB > uint64(len(d.data))+1 { // each member bucket is >= 1 byte
		d.fail("member registry count exceeds payload")
	}
	if d.err == nil && nMB > 0 {
		degree := int(nMB - 1)
		st.memberBucket = make([]int32, degree)
		for i := range st.memberBucket {
			st.memberBucket[i] = d.bucket(c.k)
		}
		// applyUpdate indexes moved by member position whenever the
		// registry exists, so it must be re-allocated alongside.
		st.moved = make([]bool, degree)
	}
	if d.err != nil {
		return nil, 0, fmt.Errorf("distshp: queryState snapshot: %w", d.err)
	}
	st.recount()
	return st, len(data) - len(d.data), nil
}

func (c queryStateCodec) Size(m any) int {
	buf, _ := c.Append(nil, m)
	return len(buf)
}

// newSnapshotRegistry builds the checkpoint codec registry of the vertex
// states of a run over k buckets. A state missing here fails the checkpoint
// loudly instead of being dropped.
func newSnapshotRegistry(k int) *pregel.Registry {
	reg := pregel.NewRegistry()
	reg.Register(&dataState{}, dataStateCodec{k})
	reg.Register(&queryState{}, queryStateCodec{k})
	return reg
}
