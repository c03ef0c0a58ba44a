package distshp

// Tests of the incremental (dirty-query delta) message plane: pinned
// equivalence against the full-rebroadcast path, patched-vs-rebuilt
// accumulator properties through real codec round-trips, and the
// churn-proportional traffic claim itself.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"shp/internal/core"
	"shp/internal/pregel"
	"shp/internal/rng"
)

// requireSameResult pins two runs byte-identical: assignments, iteration
// counts, and the full per-iteration history including bitwise fanout.
func requireSameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	for i := range a.Assignment {
		if a.Assignment[i] != b.Assignment[i] {
			t.Fatalf("%s: assignments differ at vertex %d: %d vs %d", label, i, a.Assignment[i], b.Assignment[i])
		}
	}
	if a.Levels != b.Levels || a.Iterations != b.Iterations {
		t.Fatalf("%s: schedule differs: %d levels/%d iters vs %d/%d",
			label, a.Levels, a.Iterations, b.Levels, b.Iterations)
	}
	if len(a.History) != len(b.History) {
		t.Fatalf("%s: history length %d vs %d", label, len(a.History), len(b.History))
	}
	for i := range a.History {
		// Fanout is compared bitwise: the live-entry accounting must agree
		// exactly, not approximately, between the two planes.
		if a.History[i] != b.History[i] {
			t.Fatalf("%s: history[%d] differs: %+v vs %+v", label, i, a.History[i], b.History[i])
		}
	}
}

// TestDistIncrementalMatchesFull pins the dirty-query delta plane on the
// default schedule byte-identical to a full rebroadcast every iteration
// (RebuildEvery 1, which ships no delta record at all) and to never
// rebroadcasting (-1), across both transports and multiple seeds: same
// assignments, same per-iteration moved counts, bitwise-equal fanout
// history.
func TestDistIncrementalMatchesFull(t *testing.T) {
	numQ, numD, edges := 300, 450, 2600
	if testing.Short() {
		numQ, numD, edges = 180, 260, 1500
	}
	transports := []struct {
		name string
		make func() pregel.Transport
	}{
		{"memory", func() pregel.Transport { return nil }},
		{"tcp", pregel.TCPTransport},
	}
	for _, seed := range []uint64{31, 32} {
		g := randomBipartite(t, seed, numQ, numD, edges)
		for _, tr := range transports {
			opts := Options{K: 8, Seed: seed, Workers: 4, Transport: tr.make()}
			inc, err := Partition(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, period := range []int{1, -1} {
				opts.Transport = tr.make()
				opts.RebuildEvery = period
				ref, err := Partition(g, opts)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, fmt.Sprintf("%s/period %d", tr.name, period), inc, ref)
			}
			if err := inc.Assignment.Validate(8); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestDistRebuildScheduleInvariant checks the incremental plane's escape
// hatches are pure performance knobs: rebroadcasting every iteration
// (RebuildEvery=1), never (RebuildEvery=-1), and the default safety net all
// produce identical bits, with and without sender-side combining.
func TestDistRebuildScheduleInvariant(t *testing.T) {
	g := randomBipartite(t, 37, 200, 300, 1800)
	base, err := Partition(g, Options{K: 4, Seed: 7, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range []Options{
		{K: 4, Seed: 7, Workers: 3, RebuildEvery: 1},
		{K: 4, Seed: 7, Workers: 3, RebuildEvery: -1},
		{K: 4, Seed: 7, Workers: 3, RebuildEvery: 1, noCombine: true},
	} {
		res, err := Partition(g, variant)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, "rebuild-schedule", base, res)
	}
}

// TestDistDeltaPatchProperty is the distributed mirror of core's
// patched-vs-rebuilt property tests: random move batches flow through the
// real query-side diff (applyUpdate + deltaRecords on the pin-count rows),
// the real wire codecs, and the real data-side patch (applyDelta); after
// every batch the patched accumulators of clean observer vertices must
// bit-equal a from-scratch resummation of the query histograms, and every
// query's row must equal a recount from its members' buckets.
func TestDistDeltaPatchProperty(t *testing.T) {
	const (
		numData  = 60
		numQuery = 8
		buckets  = 8
		rounds   = 50
	)
	r := rng.New(4242)
	tb := core.NewPFanoutTables(0.5, 2, numData+1)
	wire := recordCodec{k: buckets, maxDeg: numData}

	bucketOf := make([]int32, numData)
	for d := range bucketOf {
		bucketOf[d] = int32(r.Intn(buckets))
	}

	members := make([][]int32, numQuery)
	isMember := make([]map[int32]bool, numQuery)
	qs := make([]*queryState, numQuery)
	for q := range qs {
		set := map[int32]bool{}
		for i := 0; i < 24; i++ {
			set[int32(r.Intn(numData))] = true
		}
		for d := int32(0); d < numData; d++ {
			if set[d] {
				members[q] = append(members[q], d)
			}
		}
		// A registration from every member's record: what a level start's
		// derived registry equals (TestDerivedRegistrationMatchesFull).
		var regs []record
		for _, d := range members[q] {
			regs = append(regs, bucketRecord(d, bucketOf[d]))
		}
		st := &queryState{level: -1}
		st.register(int32(q), 0, buckets, 0, members[q], regs)
		isMember[q] = set
		qs[q] = st
	}

	// Observers never move; their accumulators are patched only.
	observers := []int32{0, 1, 2, 3, 4, 5}
	isObserver := map[int32]bool{}
	obs := map[int32]*dataState{}
	scratchSums := func(o int32, bucket int32) (float64, float64) {
		var cur, oth float64
		for q := range qs {
			if !isMember[q][o] {
				continue
			}
			own, sib := qs[q].counts(bucket)
			cur += tb.T[own-1]
			oth += tb.T[sib]
		}
		return cur, oth
	}
	for _, o := range observers {
		isObserver[o] = true
		ds := &dataState{bucket: bucketOf[o]}
		ds.sumCur, ds.sumOth = scratchSums(o, ds.bucket)
		obs[o] = ds
	}

	for round := 0; round < rounds; round++ {
		// Random move batch (observers excluded).
		moves := map[int32]int32{}
		for i := 0; i < 1+r.Intn(6); i++ {
			d := int32(r.Intn(numData))
			if isObserver[d] {
				continue
			}
			moves[d] = bucketOf[d] ^ 1 // within a level, vertices move only to their sibling
		}
		// Each dirty query diffs its histogram and routes records to its
		// clean members, exactly as computeQuery does.
		batches := map[int32][]record{}
		for q, st := range qs {
			dirty := false
			for _, d := range members[q] {
				if nb, ok := moves[d]; ok {
					st.applyUpdate(int32(q), members[q], bucketRecord(d, nb), true)
					dirty = true
				}
			}
			if !dirty {
				continue
			}
			changes := st.deltaRecords()
			for _, c := range changes {
				// Single-record wire round trip.
				rec := deltaRecord(c.B, c.COld, c.CNew)
				buf, err := wire.Append(nil, []record{rec})
				if err != nil {
					t.Fatal(err)
				}
				got, used, err := wire.Decode(buf, nil)
				if err != nil || used != len(buf) || len(got) != 1 || got[0] != rec {
					t.Fatalf("round %d: delta round trip: got %+v (used %d, err %v), want %+v",
						round, got, used, err, rec)
				}
			}
			for i, d := range members[q] {
				if st.moved[i] {
					continue
				}
				ds, ok := obs[d]
				if !ok {
					continue
				}
				for _, c := range changes {
					if c.B == ds.bucket || c.B == ds.bucket^1 {
						batches[d] = append(batches[d], deltaRecord(c.B, c.COld, c.CNew))
					}
				}
			}
			st.resetSuperstep()
		}
		for d, nb := range moves {
			bucketOf[d] = nb
		}
		// Batched wire round trip (the sender-side-combined form), then
		// patch the observers.
		for _, o := range observers {
			if len(batches[o]) == 0 {
				continue
			}
			batch := batches[o]
			buf, err := wire.Append(nil, batch)
			if err != nil {
				t.Fatal(err)
			}
			if size, err := wire.Size(batch); err != nil || size != len(buf) {
				t.Fatalf("round %d: batch Size %d (%v) != encoded %d", round, size, err, len(buf))
			}
			decoded, used, err := wire.Decode(buf, nil)
			if err != nil || used != len(buf) || !slices.Equal(decoded, batch) {
				t.Fatalf("round %d: batch round trip failed (used %d, err %v)", round, used, err)
			}
			for _, rec := range decoded {
				obs[o].applyDelta(o, tb, rec)
			}
		}
		// The maintained rows must equal a recount.
		for q, st := range qs {
			memberBuckets := make([]int32, len(members[q]))
			for i, d := range members[q] {
				memberBuckets[i] = bucketOf[d]
			}
			if msg := rowViolation(st, memberBuckets, buckets); msg != "" {
				t.Fatalf("round %d: query %d: %s", round, q, msg)
			}
		}
		// Patched must bit-equal rebuilt.
		for _, o := range observers {
			ds := obs[o]
			wantCur, wantOth := scratchSums(o, ds.bucket)
			if ds.sumCur != wantCur || ds.sumOth != wantOth {
				t.Fatalf("round %d: observer %d patched sums (%v, %v) != rebuilt (%v, %v)",
					round, o, ds.sumCur, ds.sumOth, wantCur, wantOth)
			}
		}
	}
}

// TestQueryInvariantPanicsNameTheQuery checks that the query-side protocol
// violations — an update from a non-member, a move out of the registered
// sibling pairs, a row that lost a member's pin — panic naming the query,
// the only lead a corrupt-counts crash leaves.
func TestQueryInvariantPanicsNameTheQuery(t *testing.T) {
	members := []int32{3, 5, 9}
	fresh := func() *queryState {
		st := &queryState{level: -1}
		st.register(42, 1, 8, 0, members, []record{bucketRecord(3, 0), bucketRecord(5, 1), bucketRecord(9, 3)})
		return st
	}
	for _, c := range []struct {
		name string
		run  func(st *queryState)
	}{
		{"non-member", func(st *queryState) { st.applyUpdate(42, members, bucketRecord(4, 0), true) }},
		{"new pair", func(st *queryState) { st.applyUpdate(42, members, bucketRecord(3, 4), true) }},
		{"lost pin", func(st *queryState) {
			st.row.Transfer(42, 1, 0) // member 5's pin leaves bucket 1 behind the registry's back
			st.applyUpdate(42, members, bucketRecord(5, 0), true)
		}},
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "query 42") {
					t.Errorf("%s: panic %q does not name query 42", c.name, msg)
				}
			}()
			c.run(fresh())
		}()
	}
}

// TestDerivedRegistrationMatchesFull pins the level start's derived
// registry: a query that splits its own registry and hears only from the
// members that moved in the previous iteration must end with the registry,
// pairs and row of a query that heard every member's post-split bucket.
// Levels 0–2, random prior registries (what a query holds at the end of the
// previous level: the movers' pre-move buckets) and random mover subsets.
func TestDerivedRegistrationMatchesFull(t *testing.T) {
	const k, seed = 8, 77
	r := rng.New(606)
	for trial := 0; trial < 200; trial++ {
		level := trial % 3
		var members []int32 // a sorted adjacency list
		for n := 1 + r.Intn(20); n > 0; n-- {
			members = append(members, int32(r.Intn(200)))
		}
		slices.Sort(members)
		members = slices.Compact(members)
		derived := &queryState{level: -1}
		pre := make([]int32, len(members)) // each member's bucket before the split; none at level 0
		var movers []record
		if level > 0 {
			var prior []record
			for i, d := range members {
				pre[i] = int32(r.Intn(1 << level))
				prior = append(prior, bucketRecord(d, pre[i]))
			}
			derived.register(42, level-1, k, seed, members, prior)
			for i, d := range members {
				if r.Intn(3) == 0 {
					pre[i] ^= 1 // moved in the last iteration, unseen by the query
					movers = append(movers, bucketRecord(d, splitBucket(seed, level, d, pre[i])))
				}
			}
		}
		derived.register(42, level, k, seed, members, movers)

		want := make([]int32, len(members))
		var all []record
		for i, d := range members {
			want[i] = splitBucket(seed, level, d, pre[i])
			all = append(all, bucketRecord(d, want[i]))
		}
		full := &queryState{level: -1}
		full.register(42, level, k, seed, members, all)

		label := fmt.Sprintf("trial %d, level %d, %d of %d members moved", trial, level, len(movers), len(members))
		if !slices.Equal(full.memberBucket, want) {
			t.Fatalf("%s: full registration %v, want %v", label, full.memberBucket, want)
		}
		if !slices.Equal(derived.memberBucket, full.memberBucket) {
			t.Fatalf("%s: registry %v, want %v", label, derived.memberBucket, full.memberBucket)
		}
		if !slices.Equal(derived.pairs, full.pairs) {
			t.Fatalf("%s: pairs %v, want %v", label, derived.pairs, full.pairs)
		}
		if diff := derived.row.Diff(nil, full.row); len(diff) > 0 || derived.row.Live() != full.row.Live() {
			t.Fatalf("%s: row differs from the full registration's: %v", label, diff)
		}
		if v := rowViolation(derived, full.memberBucket, k); v != "" {
			t.Fatalf("%s: %s", label, v)
		}
	}
}

// TestDeltaWireSize pins the slimmed delta encoding: receivers patch by
// table-value differences alone, so no query id travels with a record —
// 12 bytes each (bucket, cOld, cNew), 25% below a 16-byte record, so a lone
// delta costs 1 + 12 bytes and a batch of n small records 2 + 12n.
func TestDeltaWireSize(t *testing.T) {
	if got := payloadSize(kindDelta); got != 12 {
		t.Fatalf("delta payload = %d bytes, want 12 (bucket + cOld + cNew, no query id)", got)
	}
	rec := deltaRecord(5, 2, 3)
	if got := len(envelopeBytes(rec)); got != 1+12 {
		t.Fatalf("encoded delta is %d bytes, want 13", got)
	}
	batch := []record{rec, deltaRecord(4, 0, 1), deltaRecord(1, 7, 0)}
	buf := envelopeBytes(batch...)
	if want := 2 + 12*len(batch); len(buf) != want {
		t.Fatalf("encoded batch of %d records is %d bytes, want %d", len(batch), len(buf), want)
	}
	if sz, err := wideWire.Size(batch); err != nil || sz != len(buf) {
		t.Fatalf("Size %d (%v) != encoded %d", sz, err, len(buf))
	}
}

// TestDistDeltaCutsLateSuperstepBytes asserts the tentpole claim: once the
// moved fraction falls to <= 1%, the delta plane's gain-superstep traffic is
// at least 3x smaller than that of a full rebroadcast every iteration
// (RebuildEvery 1, which stays O(|E|) per iteration no matter how little
// moves).
func TestDistDeltaCutsLateSuperstepBytes(t *testing.T) {
	communities, perCommunity, queries, qdeg := 4, 200, 900, 6
	if testing.Short() {
		communities, perCommunity, queries, qdeg = 4, 150, 700, 4
	}
	g := plantedGraph(t, communities, perCommunity, queries, qdeg)
	opts := Options{K: 8, Seed: 42, Workers: 4, MinMoveFraction: 1e-9}
	inc, err := Partition(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.RebuildEvery = 1
	full, err := Partition(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "late-bytes", inc, full)
	if got, want := inc.Stats.Supersteps, 4*len(inc.History); got != want {
		t.Fatalf("supersteps %d != 4 x %d iterations", got, len(inc.History))
	}
	late, incLate := inc.LateGainBytes(0.01)
	fullLateIters, fullLate := full.LateGainBytes(0.01)
	if late != fullLateIters {
		t.Fatalf("late iteration sets differ: %d vs %d (histories are pinned equal)", late, fullLateIters)
	}
	if late == 0 {
		t.Fatal("no late (<=1% moved) iterations; graph or schedule too small to test the claim")
	}
	if incLate*3 > fullLate {
		t.Fatalf("late gain-superstep bytes: incremental %d vs full %d over %d iterations — less than the required 3x reduction",
			incLate, fullLate, late)
	}
	if inc.Stats.TotalBytes >= full.Stats.TotalBytes {
		t.Fatalf("incremental total bytes %d not below full %d", inc.Stats.TotalBytes, full.Stats.TotalBytes)
	}
}

// TestDistChangedOnlyProposalBytes asserts the proposal plane's version of
// the tentpole claim: stable vertices neither recompute nor re-ship their
// proposal, so once the moved fraction falls to <= 1% the proposal
// superstep's per-iteration aggregator traffic is at least 3x below the
// registration superstep's (which ships every vertex's histogram entry).
// The aggregate stream itself is also pinned identical between the default
// schedule and a rebroadcast every iteration: the retract/assert deltas key
// on gains both compute bit-identically, so the same vertices change in the
// same supersteps either way.
func TestDistChangedOnlyProposalBytes(t *testing.T) {
	communities, perCommunity, queries, qdeg := 4, 200, 900, 6
	if testing.Short() {
		communities, perCommunity, queries, qdeg = 4, 150, 700, 4
	}
	g := plantedGraph(t, communities, perCommunity, queries, qdeg)
	opts := Options{K: 8, Seed: 42, Workers: 4, MinMoveFraction: 1e-9}
	inc, err := Partition(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.RebuildEvery = 1
	full, err := Partition(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "proposal-bytes", inc, full)
	if inc.Stats.AggBytes == 0 {
		t.Fatal("no aggregator traffic measured")
	}
	if li, lf := len(inc.Stats.PerSuperstep), len(full.Stats.PerSuperstep); li != lf {
		t.Fatalf("superstep counts differ: %d vs %d", li, lf)
	}
	for s := range inc.Stats.PerSuperstep {
		if a, b := inc.Stats.PerSuperstep[s].AggBytes, full.Stats.PerSuperstep[s].AggBytes; a != b {
			t.Fatalf("superstep %d aggregator bytes differ between planes: %d vs %d", s, a, b)
		}
	}
	// Registration supersteps (level starts) assert every vertex's proposal;
	// late supersteps ship only the churn's retract/assert deltas.
	var regIters int
	var regBytes int64
	for j, rec := range inc.History {
		if rec.Iter != 0 {
			continue
		}
		if s := 4*j + 2; s < len(inc.Stats.PerSuperstep) {
			regIters++
			regBytes += inc.Stats.PerSuperstep[s].AggBytes
		}
	}
	lateIters, lateBytes := inc.LateProposalBytes(0.01)
	if regIters == 0 || lateIters == 0 {
		t.Fatalf("degenerate schedule: %d registration, %d late iterations", regIters, lateIters)
	}
	// Compare per-iteration averages; lateBytes may legitimately be zero
	// (a fully stable frontier ships nothing at all).
	if lateBytes*int64(regIters)*3 > regBytes*int64(lateIters) {
		t.Fatalf("late proposal bytes/iter %d not 3x below registration %d",
			lateBytes/int64(lateIters), regBytes/int64(regIters))
	}
	t.Logf("proposal aggregator bytes/iter: registration %d over %d iters, late %d over %d iters",
		regBytes/int64(regIters), regIters, lateBytes/int64(lateIters), lateIters)
}

// TestDistTCPIncrementalMatchesMemory runs the incremental plane over real
// loopback-TCP sockets with concurrent per-pair reader/writer goroutines —
// the configuration the CI race job exercises — and pins it to the
// in-process transport.
func TestDistTCPIncrementalMatchesMemory(t *testing.T) {
	numQ, numD, edges := 300, 500, 3000
	if testing.Short() {
		numQ, numD, edges = 150, 250, 1500
	}
	g := randomBipartite(t, 47, numQ, numD, edges)
	mem, err := Partition(g, Options{K: 8, Seed: 13, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := Partition(g, Options{K: 8, Seed: 13, Workers: 4, Transport: pregel.TCPTransport()})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "tcp-vs-memory", mem, tcp)
	if tcp.Stats.TotalBytes == 0 {
		t.Fatal("TCP incremental run measured zero wire bytes")
	}
	if err := tcp.Assignment.Validate(8); err != nil {
		t.Fatal(err)
	}
}
