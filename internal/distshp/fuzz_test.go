package distshp

// Fuzzers for the codecs that read bytes off the wire or a checkpoint:
// whatever arrives, Decode must either reject it or produce a value whose
// encoding round-trips stably. `go test` runs the seed corpus, so these double
// as regression tests in CI.
//
// The wire has one codec, recordCodec, and one property, checkRecordCodec.
// Each of the five Fuzz*Codec targets before FuzzCheckpointCodec starts the
// fuzzer from one wire kind's envelopes.

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"shp/internal/core"
)

// fuzzWire is the record codec the wire fuzz targets run: a run over fuzzK
// buckets and 16 data vertices.
var fuzzWire = recordCodec{k: fuzzK, numData: 16}

// checkRecordCodec is the wire codec's property: hostile counts and
// truncations fail without appending anything; whatever decodes holds only
// records of data vertices in [0, 16), movers to buckets in [0, fuzzK),
// re-encodes to exactly the bytes consumed, sizes to them, and decodes again
// onto what is already there.
func checkRecordCodec(t *testing.T, data []byte) {
	recs, used, err := fuzzWire.Decode(data, nil)
	if err != nil {
		if len(recs) != 0 {
			t.Fatalf("failed decode appended %d records", len(recs))
		}
		return
	}
	if used < 1 || used > len(data) || len(recs) == 0 {
		t.Fatalf("decoded %d records from %d of %d bytes", len(recs), used, len(data))
	}
	for _, r := range recs {
		if d, b := r.mover(); d < 0 || d >= 16 || r.kind == kindBucket && (b < 0 || b >= fuzzK) {
			t.Fatalf("decoded an out-of-range record %+v", r)
		}
	}
	re, err := fuzzWire.Append(nil, recs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, data[:used]) {
		t.Fatalf("re-encode mismatch: %x vs %x", re, data[:used])
	}
	if size, err := fuzzWire.Size(recs); err != nil || size != len(re) {
		t.Fatalf("Size %d (%v) != encoded %d", size, err, len(re))
	}
	again, used2, err := fuzzWire.Decode(re, recs)
	if err != nil || used2 != used || !slices.Equal(again[:len(recs)], recs) || !slices.Equal(again[len(recs):], recs) {
		t.Fatalf("decoding onto earlier records: %+v (used %d, err %v)", again, used2, err)
	}
}

func envelopeBytes(recs ...record) []byte {
	buf, _ := fuzzWire.Append(nil, recs)
	return buf
}

// FuzzDeltaCodec starts from patch records, the kind that replaced
// per-bucket delta records, alone and in a worker's batch.
func FuzzDeltaCodec(f *testing.F) {
	f.Add(envelopeBytes(patchRecord(3, -3)))
	f.Add(envelopeBytes(patchRecord(0, 0)))
	f.Add(envelopeBytes(patchRecord(15, math.MinInt64)))
	f.Add(envelopeBytes(patchRecord(7, math.MaxInt64)))
	f.Add([]byte{})
	f.Add([]byte{kindPatch, 2, 3})
	f.Add(envelopeBytes(patchRecord(1, 1))[:10])                                      // one payload byte short
	f.Add(envelopeBytes(patchRecord(1, 4), gainRecord(2, -1), patchRecord(15, 9)))    // kinds mixed over vertices
	f.Add(envelopeBytes(patchRecord(2, 1), patchRecord(16, 3)))                       // an id of |D|
	f.Add(envelopeBytes(patchRecord(3, 1), patchRecord(9, 2), gainRecord(4, 5))[:22]) // a truncated tail
	f.Fuzz(checkRecordCodec)
}

// rowViolation describes the first way st's pairs and row break their
// contract for a query whose members sit in buckets (-1 = unregistered),
// over k buckets: pairs that are not the registered members' distinct
// sibling pairs, ascending; a bucket count that differs from the tally of
// buckets; or a mask bit set without a count or missing beside one. It
// returns "" when the state holds.
func rowViolation(st *queryState, buckets []int32, k int) string {
	tally := make([]int32, k)
	var pairs []int32
	for _, b := range buckets {
		if b >= 0 {
			tally[b]++
			pairs = append(pairs, b>>1)
		}
	}
	slices.Sort(pairs)
	if pairs = slices.Compact(pairs); !slices.Equal(st.pairs, pairs) {
		return fmt.Sprintf("pairs %v, want %v", st.pairs, pairs)
	}
	var want []core.NDChange
	for b, c := range tally {
		// The row's local bucket of b, if a member holds b's pair.
		if i, ok := slices.BinarySearch(st.pairs, int32(b)>>1); ok {
			if l := int32(i)<<1 | int32(b)&1; st.row.Count(l) != c {
				return fmt.Sprintf("bucket %d: count %d, tally %d", b, st.row.Count(l), c)
			}
		}
		if c > 0 {
			want = append(want, core.NDChange{B: int32(b), CNew: c})
		}
	}
	// Diffing against an empty row walks the mask: it must name exactly the
	// buckets with a pin, and Live must count no other bit.
	got := st.row.Diff(nil, core.PinRow{}.Reshape(2*len(st.pairs)))
	for i, c := range got {
		got[i].B = st.pairs[c.B>>1]<<1 | c.B&1
	}
	if !slices.Equal(got, want) || st.row.Live() != len(want) {
		return fmt.Sprintf("mask walk %v (live %d), want %v", got, st.row.Live(), want)
	}
	return ""
}

// fuzzK is the bucket count the checkpoint fuzz target's states run at.
const fuzzK = 8

// newQuery returns one unregistered query state of the given degree, carved
// the way a run carves its queries', at k buckets.
func newQuery(degree, k int) *queryState {
	return &newQueryStates(1, k, func(int) int { return degree })[0]
}

// coinTable returns the split coins of data vertices 0..n-1 at level, what
// a worker's mirror draws for the vertices it holds (mirror.drawCoins).
func coinTable(seed uint64, level, n int) []uint8 {
	coins := make([]uint8, n)
	for d := range coins {
		coins[d] = splitCoin(seed, level, int32(d))
	}
	return coins
}

// fuzzRun returns the run state of a small graph at fuzzK buckets as it
// stands at the start of sampleSchedule's iteration (level 1, iteration 2),
// on two workers, which host its even and its odd vertices.
func fuzzRun(tb testing.TB) *runState {
	const seed = 5
	g := randomBipartite(tb, seed, 40, 60, 200)
	sched := sampleSchedule()
	sched.opts.Workers = 2
	s := newRunState(g, sched)
	for d := range s.data {
		st := &s.data[d]
		st.bucket = splitBucket(seed, 1, int32(d), splitBucket(seed, 0, int32(d), -1))
		st.acc, st.propBucket, st.propLevel = 2*int64(d), st.bucket, 1
	}
	for q := range s.query {
		for level := 0; level <= 1; level++ {
			s.query[q].register(int32(q), level, g.QueryNeighbors(int32(q)), coinTable(seed, level, g.NumData()), nil, make([]int32, fuzzK/2))
		}
	}
	for w := range s.mirrors {
		s.mirrors[w].level = 1
	}
	return s
}

// checkpointOf returns the worker parts and master blob a checkpoint of s
// holds.
func checkpointOf(s *runState) ([][]byte, []byte) {
	parts := make([][]byte, len(s.hosted))
	for w := range parts {
		parts[w] = s.AppendWorker(nil, w)
	}
	return parts, s.AppendMaster(nil)
}

// restorable is what a restore may change: the data slab, each query's
// pairs and row, each worker's registration level, and the schedule.
type restorable struct {
	data   []dataState
	query  []string
	levels []int
	sched  schedule
}

func restorableOf(s *runState) restorable {
	r := restorable{data: slices.Clone(s.data), sched: *s.sched}
	for q := range s.query {
		st := &s.query[q]
		r.query = append(r.query, fmt.Sprint(st.pairs, st.row))
	}
	for w := range s.mirrors {
		r.levels = append(r.levels, s.mirrors[w].level)
	}
	return r
}

// requireReplayState checks that s is what a restore leaves: every data
// vertex a mover, on its worker's mover list and none heard, with nothing
// proposed and its bucket in the range of its level (the previous one at a
// level start), every query unregistered, and the master's proposal plane
// empty.
func requireReplayState(t *testing.T, s *runState) {
	t.Helper()
	level := s.sched.level
	if s.sched.iter == 0 {
		level--
	}
	for d, st := range s.data {
		if want := (dataState{bucket: st.bucket, propLevel: -1}); st != want {
			t.Fatalf("data vertex %d restored as %+v, want %+v", d, st, want)
		}
		if level < 0 && st.bucket != -1 || level >= 0 && (st.bucket < 0 || st.bucket >= 2<<level) {
			t.Fatalf("data vertex %d restored into bucket %d at level %d", d, st.bucket, level)
		}
	}
	for q := range s.query {
		if st := &s.query[q]; len(st.pairs) != 0 || st.row.Live() != 0 {
			t.Fatalf("query %d restored with pairs %v, %d live buckets", q, st.pairs, st.row.Live())
		}
	}
	for w := range s.mirrors {
		if m := &s.mirrors[w]; m.level != -1 {
			t.Fatalf("worker %d's queries restored registered at level %d", w, m.level)
		}
		if !slices.Equal(s.movers[w], s.hosted[w]) || len(s.heard[w]) != 0 {
			t.Fatalf("worker %d restored movers %v and heard %v, want movers %v", w, s.movers[w], s.heard[w], s.hosted[w])
		}
	}
	if sc := s.sched; !planeEmpty(sc) || sc.ndEntries != 0 || sc.rebuildNext {
		t.Fatal("the restored schedule kept proposal-plane state")
	}
}

// FuzzCheckpointCodec drives the checkpoint hook's Restore with a
// checkpoint one of whose blobs — the master's, or the part of the worker
// the fuzzer names — is arbitrary bytes. Hostile input (a data bucket
// outside its level's range, a short part, a trailing byte, a damaged
// schedule, an absurd history count) must be refused without a panic or an
// allocation the payload does not pay for, and leave the run state exactly
// as it was. An accepted checkpoint must leave the level-start replay state
// and re-encode to exactly the bytes it was restored from: a varint in more
// bytes than its minimal form is refused like a truncated one.
func FuzzCheckpointCodec(f *testing.F) {
	s := fuzzRun(f)
	parts, master := checkpointOf(s)
	s.data[1].bucket = 4 // level 1 holds buckets [0, 4); vertex 1 is on worker 1
	outOfRange, _ := checkpointOf(s)
	sched := sampleSchedule()
	sched.iter = 0 // a level start: the parts must hold level-0 buckets
	levelStart := sched.appendBinary(nil)
	sched.level = 0 // the run's start: the parts must hold -1
	runStart := sched.appendBinary(nil)
	sched.level = sched.levels
	pastLast := sched.appendBinary(nil)
	f.Add(false, uint8(0), parts[0])
	f.Add(true, uint8(0), master)
	f.Add(false, uint8(1), outOfRange[1])
	f.Add(false, uint8(0), parts[0][:len(parts[0])-1])
	f.Add(false, uint8(1), append(bytes.Clone(parts[1]), 0))
	f.Add(true, uint8(0), master[:len(master)-1])
	f.Add(true, uint8(0), levelStart)
	f.Add(true, uint8(0), runStart)
	f.Add(true, uint8(0), pastLast)
	f.Add(false, uint8(1), []byte{})
	f.Add(true, uint8(0), []byte{2, 4, 255, 255, 255, 255, 255, 255, 255, 255, 255, 1}) // absurd history count
	f.Add(false, uint8(0), append([]byte{parts[0][0] | 0x80, 0}, parts[0][1:]...))      // an overlong bucket
	f.Add(true, uint8(0), append([]byte{master[0] | 0x80, 0}, master[1:]...))           // an overlong level
	f.Fuzz(func(t *testing.T, hostileMaster bool, worker uint8, data []byte) {
		s := fuzzRun(t)
		parts, master := checkpointOf(s)
		if hostileMaster {
			master = data
		} else {
			parts[int(worker)%len(parts)] = data
		}
		before := restorableOf(s)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := s.Restore(parts, master)
		runtime.ReadMemStats(&m1)
		// A history record costs 32 bytes for at least 4 of payload.
		if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > 64<<10+8*uint64(len(data)) {
			t.Fatalf("restoring %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			if !reflect.DeepEqual(restorableOf(s), before) {
				t.Fatalf("a refused checkpoint (%v) changed the run state", err)
			}
			return
		}
		requireReplayState(t, s)
		reParts, reMaster := checkpointOf(s)
		if !slices.EqualFunc(reParts, parts, bytes.Equal) || !bytes.Equal(reMaster, master) {
			t.Fatalf("an accepted checkpoint re-encodes to other bytes: %x | %x, was %x | %x", reParts, reMaster, parts, master)
		}
	})
}

// TestCheckpointCodecRejectsOutOfRangeBuckets checks that a checkpoint
// holding a data bucket the restored level has no slot for — above or below
// its range, or a level start over the next level's buckets — is refused
// instead of crashing the resumed run and leaves the run state unchanged,
// and that both ends of each range restore.
func TestCheckpointCodecRejectsOutOfRangeBuckets(t *testing.T) {
	s := fuzzRun(t) // level 1, iteration 2: buckets [0, 4)
	_, master := checkpointOf(s)
	before := restorableOf(s)
	// withBuckets checkpoints vertex 0 (on worker 0) in bucket b0, vertex 1
	// (on worker 1) in b1 and every other data vertex in b0.
	withBuckets := func(b0, b1 int32) [][]byte {
		for d := range s.data {
			s.data[d].bucket = b0
		}
		s.data[1].bucket = b1
		parts, _ := checkpointOf(s)
		for d := range s.data {
			s.data[d].bucket = before.data[d].bucket
		}
		return parts
	}
	levelStart := sampleSchedule()
	levelStart.iter = 0 // level 0's buckets are [0, 2)
	for _, c := range []struct {
		name   string
		parts  [][]byte
		master []byte
	}{
		{"bucket 4 at level 1", withBuckets(0, 4), master},
		{"bucket -1 at level 1", withBuckets(0, -1), master},
		{"bucket -2 at level 1", withBuckets(0, -2), master},
		{"bucket 2 at a level start over level 0", withBuckets(0, 2), levelStart.appendBinary(nil)},
	} {
		if err := s.Restore(c.parts, c.master); err == nil {
			t.Fatalf("%s: restored", c.name)
		}
		if !reflect.DeepEqual(restorableOf(s), before) {
			t.Fatalf("%s: a refused restore changed the run state", c.name)
		}
	}
	if err := s.Restore(withBuckets(0, 3), master); err != nil {
		t.Fatalf("buckets 0 and 3 at level 1: %v", err)
	}
	if s.data[0].bucket != 0 || s.data[1].bucket != 3 {
		t.Fatalf("restored buckets %d, %d, want 0, 3", s.data[0].bucket, s.data[1].bucket)
	}
	if err := s.Restore(withBuckets(0, 1), levelStart.appendBinary(nil)); err != nil {
		t.Fatalf("buckets 0 and 1 at a level start over level 0: %v", err)
	}
	requireReplayState(t, s)
}

// TestRecordCodecRejectsOutOfRange checks that a wire frame or checkpointed
// message holding a mover id outside [0, |D|) — -1 or |D| — or a bucket
// outside [0, K) — -1 or K — fails its decode instead of crashing the
// receiver, and that both ends of each range decode.
func TestRecordCodecRejectsOutOfRange(t *testing.T) {
	for _, r := range []record{
		moverRecord(3, fuzzK), moverRecord(3, -1),
		moverRecord(16, 0), moverRecord(-1, 1),
	} {
		if recs, _, err := fuzzWire.Decode(envelopeBytes(r), nil); err == nil {
			t.Errorf("%+v decoded as %+v", r, recs)
		}
	}
	batch := envelopeBytes(moverRecord(1, 0), moverRecord(2, fuzzK))
	if recs, _, err := fuzzWire.Decode(batch, []record{gainRecord(1, 1)}); err == nil || len(recs) != 1 {
		t.Errorf("batch with a bucket of K: decoded %+v (err %v)", recs, err)
	}
	for _, r := range []record{moverRecord(3, 0), moverRecord(3, fuzzK-1), moverRecord(15, 0), moverRecord(0, 1)} {
		if _, _, err := fuzzWire.Decode(envelopeBytes(r), nil); err != nil {
			t.Errorf("%+v: %v", r, err)
		}
	}
}

// TestDistRecordCodecRejectsBadBatches checks that a worker's batch of
// gains and patches that no run sends fails its decode, appending nothing:
// an id of |D| or beyond, an id that does not ascend in the ascending form
// (a gap of 0), an unknown header byte, and an id code whose gap runs past
// every id. The batch that ends at id |D|-1 decodes.
func TestDistRecordCodecRejectsBadBatches(t *testing.T) {
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"gain at |D|", envelopeBytes(gainRecord(16, 1))},
		{"patch past |D| in a batch", envelopeBytes(patchRecord(3, 1), gainRecord(7, 2), patchRecord(40, 3))},
		{"any-order id at |D|", envelopeBytes(patchRecord(16, 1), patchRecord(2, 2))},
		{"repeated id", cat([]byte{ascendingIDs, 2, 4}, le64(1), []byte{0 << 1}, le64(2))},
		{"repeated id as a patch", cat([]byte{ascendingIDs, 2, 4}, le64(1), []byte{0<<1 | 1}, le64(2))},
		{"unknown kind", cat([]byte{12, 1, 2}, le64(1))},
		{"unknown batch kind", cat([]byte{ascendingIDs | batchBit, 1, 2}, le64(1))},
		{"gap past every id", cat([]byte{ascendingIDs, 1, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, le64(1))},
	} {
		if recs, _, err := fuzzWire.Decode(c.data, []record{gainRecord(1, 1)}); err == nil || len(recs) != 1 {
			t.Errorf("%s: decoded %+v (err %v)", c.name, recs, err)
		}
	}
	if recs, _, err := fuzzWire.Decode(envelopeBytes(gainRecord(0, 1), patchRecord(15, 2)), nil); err != nil || len(recs) != 2 {
		t.Errorf("ids 0 and 15: decoded %+v (err %v)", recs, err)
	}
}

// FuzzDeltaBatchCodec starts from batches of gains and patches in any id
// order, which the fold-off side of the equivalence tests sends: a batch
// decodes whole, and two envelopes back to back decode as the first one
// alone.
func FuzzDeltaBatchCodec(f *testing.F) {
	two := append(envelopeBytes(patchRecord(5, 2)), envelopeBytes(patchRecord(1, -3))...)
	batch := envelopeBytes(patchRecord(5, 2), patchRecord(1, -3))
	f.Add(two)
	f.Add(batch)
	f.Add(cat([]byte{anyIDs, 1, 2}, le64(2)))                             // a batch of one
	f.Add(batch[:len(batch)-1])                                           // truncated last record
	f.Add([]byte{anyIDs, 200})                                            // truncated uvarint count
	f.Add([]byte{anyIDs, 255, 255, 255, 255, 255, 255, 255, 255, 255, 1}) // absurd count
	f.Add(envelopeBytes(gainRecord(1, 1), gainRecord(1, math.MaxInt64), gainRecord(0, math.MinInt64)))
	f.Fuzz(checkRecordCodec)
}

// FuzzBucketCodec starts from lone mover records, in and out of range.
func FuzzBucketCodec(f *testing.F) {
	f.Add(envelopeBytes(moverRecord(7, 3)))
	f.Add(envelopeBytes(moverRecord(0, -1)))
	f.Add(envelopeBytes(moverRecord(7, fuzzK)))
	f.Add([]byte{})
	f.Add([]byte{kindBucket, 2, 3})
	f.Fuzz(checkRecordCodec)
}

// FuzzBucketBatchCodec starts from batches of mover records, one worker's
// envelope to another in superstep 0.
func FuzzBucketBatchCodec(f *testing.F) {
	two := envelopeBytes(moverRecord(2, 1), moverRecord(4, 0))
	f.Add(two)
	f.Add(envelopeBytes(moverRecord(2, 3), moverRecord(9, 0), moverRecord(0, 7)))
	f.Add([]byte{kindBucket | batchBit, 0})                                              // an empty batch
	f.Add(two[:len(two)-1])                                                              // truncated last record
	f.Add([]byte{kindBucket | batchBit, 200})                                            // truncated uvarint count
	f.Add([]byte{kindBucket | batchBit, 255, 255, 255, 255, 255, 255, 255, 255, 255, 1}) // absurd count
	f.Fuzz(checkRecordCodec)
}

// FuzzGainCodec starts from gain records, alone and in a worker's batch.
func FuzzGainCodec(f *testing.F) {
	f.Add(envelopeBytes(gainRecord(4, -4)))
	f.Add([]byte{})
	f.Add([]byte{kindGain, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(cat([]byte{ascendingIDs, 1, 2}, []byte{1, 2, 3, 4, 5, 6, 7}))              // one payload byte short
	f.Add(envelopeBytes(gainRecord(0, 4), patchRecord(1, -1), gainRecord(14, 9)))    // kinds mixed over vertices
	f.Add(envelopeBytes(gainRecord(9, 1), gainRecord(16, 3)))                        // an id of |D|
	f.Add(envelopeBytes(gainRecord(2, 1), patchRecord(3, 2), gainRecord(8, 5))[:28]) // a truncated tail
	f.Fuzz(checkRecordCodec)
}

// sampleSchedule is a master state at the start of level 1's third
// iteration, with a history and a proposal plane.
func sampleSchedule() *schedule {
	s := &schedule{
		opts: Options{K: fuzzK}.withDefaults(), levels: 3, ideal: 40,
		level: 1, iter: 2, rebuildNext: true, ndEntries: 60,
		history: []IterRecord{{Level: 0, Iter: 0, Moved: 12, Fanout: 1.5}, {Level: 0, Iter: 1, Moved: 0, Fanout: 1.375},
			{Level: 1, Iter: 0, Moved: 9, Fanout: 1.75}, {Level: 1, Iter: 1, Moved: 3, Fanout: 1.625}},
	}
	s.resetPlane()
	copy(s.weights, []int64{41, 37, -3})
	unit := math.Ldexp(0.5, -32)
	for b, gains := range map[int][]int64{0: {1 << 32, -1 << 31}, 1: {3 << 32}, 3: {-1 << 34, 1 << 30, 3 << 31}} {
		for _, g := range gains {
			s.hists[b].Add(g, unit)
		}
	}
	s.match()
	return s
}

// planeEmpty reports whether s's proposal plane — histograms, weights and
// move probabilities — is all zero.
func planeEmpty(s *schedule) bool {
	return !slices.ContainsFunc(s.hists, func(h core.DirHist) bool { return h != core.DirHist{} }) &&
		!slices.ContainsFunc(s.weights, func(w int64) bool { return w != 0 }) &&
		!slices.ContainsFunc(s.probs, func(p core.ProbTable) bool { return p != core.ProbTable{} })
}

// FuzzSnapshotValueCodecs drives the decoder of the master's blob, the
// schedule's level, iteration and history: hostile counts and truncations
// must be refused without a panic or an allocation the payload does not pay
// for, and an accepted blob must decode to a schedule with an empty
// proposal plane that re-encodes to exactly the blob.
func FuzzSnapshotValueCodecs(f *testing.F) {
	valid := sampleSchedule().appendBinary(nil)
	levelStart := sampleSchedule()
	levelStart.iter = 0
	outOfRange := sampleSchedule()
	outOfRange.level = 3 // == levels
	// level, iteration and the history count take one byte each.
	const header = 3
	f.Add(valid)
	f.Add(levelStart.appendBinary(nil))
	f.Add(valid[:len(valid)-3])                                                                  // a valid prefix, then a truncated history
	f.Add(valid[:1])                                                                             // truncated inside the header
	f.Add(append(bytes.Clone(valid[:header-1]), 255, 255, 255, 255, 255, 255, 255, 255, 255, 1)) // absurd history count
	f.Add(append(bytes.Clone(valid[:header-1]), 200, 200, 200, 200, 1))                          // a count past the payload
	f.Add(outOfRange.appendBinary(nil))
	f.Add(append(bytes.Clone(valid), 0)) // a trailing byte
	f.Add([]byte{})
	f.Add(append([]byte{valid[0] | 0x80, 0}, valid[1:]...)) // an overlong level
	f.Fuzz(func(t *testing.T, data []byte) {
		s := sampleSchedule()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		r, err := s.decode(data)
		runtime.ReadMemStats(&m1)
		if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > 64<<10+8*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		if !planeEmpty(r) || r.ndEntries != 0 || r.rebuildNext {
			t.Fatal("a decoded schedule holds proposal-plane state")
		}
		if re := r.appendBinary(nil); !bytes.Equal(re, data) {
			t.Fatalf("an accepted blob re-encodes to other bytes: %x vs %x", re, data)
		}
	})
}
