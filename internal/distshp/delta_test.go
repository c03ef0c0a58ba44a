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
	"shp/internal/gen"
	"shp/internal/hypergraph"
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

// TestDistIncrementalMatchesFull pins the dirty-query patch plane
// byte-identical to a full rebroadcast every iteration (sweepEvery 1, which
// ships no patch record at all), across both transports and multiple seeds:
// same assignments, same per-iteration moved counts, bitwise-equal fanout
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
			opts.Transport = tr.make()
			opts.sweepEvery = 1
			ref, err := Partition(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, tr.name+"/full", inc, ref)
			if err := inc.Assignment.Validate(8); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestDistRebuildScheduleInvariant checks that a full rebroadcast every
// iteration (sweepEvery 1) and the patched default produce identical bits,
// with and without the per-worker fold.
func TestDistRebuildScheduleInvariant(t *testing.T) {
	g := randomBipartite(t, 37, 200, 300, 1800)
	base, err := Partition(g, Options{K: 4, Seed: 7, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range []Options{
		{K: 4, Seed: 7, Workers: 3, sweepEvery: 1},
		{K: 4, Seed: 7, Workers: 3, sweepEvery: 1, noFold: true},
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
// real query-side diff (applyTracked on the member updates a mirror table
// fans out, and changed, on the pin-count rows), the real patch computation
// (patches, one table per dirty query), the real wire codec, and the data
// side's additive patch; after every batch the patched accumulators of
// clean observer vertices must bit-equal a from-scratch resummation of the
// query histograms, and every query's row must equal a recount from its
// members' buckets.
func TestDistDeltaPatchProperty(t *testing.T) {
	const (
		numData  = 60
		numQuery = 8
		buckets  = 8
		rounds   = 50
	)
	r := rng.New(4242)
	tb := core.NewPFanoutTables(0.5, 2, numData+1)
	wire := recordCodec{k: buckets, numData: numData}

	bucketOf := make([]int32, numData)
	for d := range bucketOf {
		bucketOf[d] = int32(r.Intn(buckets))
	}

	members := make([][]int32, numQuery)
	slotOf := make([]map[int32]int32, numQuery) // member -> slot, nil entry for non-members
	qs := make([]*queryState, numQuery)
	for q := range qs {
		set := map[int32]bool{}
		for i := 0; i < 24; i++ {
			set[int32(r.Intn(numData))] = true
		}
		slotOf[q] = map[int32]int32{}
		for d := int32(0); d < numData; d++ {
			if set[d] {
				slotOf[q][d] = int32(len(members[q]))
				members[q] = append(members[q], d)
			}
		}
		// A registration from every member's record: what a level start's
		// derived registry equals (TestDerivedRegistrationMatchesFull).
		var regs []update
		for i, d := range members[q] {
			regs = append(regs, update{int32(i), bucketOf[d]})
		}
		st := newQuery(len(members[q]), buckets)
		st.register(int32(q), 0, members[q], coinTable(0, 0, numData), regs, make([]int32, buckets/2))
		qs[q] = st
	}

	// Observers never move; their accumulators are patched only.
	observers := []int32{0, 1, 2, 3, 4, 5}
	isObserver := map[int32]bool{}
	obs := map[int32]*dataState{}
	scratchAcc := func(o int32) int64 {
		var acc int64
		for q, st := range qs {
			if i, ok := slotOf[q][o]; ok {
				acc += st.contribution(tb, st.memberLocal[i])
			}
		}
		return acc
	}
	// The observers' worker, which adds what it hears as runState.hear does.
	heard := &runState{data: make([]dataState, numData), host: make([]int32, numData), heard: make([][]int32, 1)}
	for _, o := range observers {
		isObserver[o] = true
		obs[o] = &heard.data[o]
		*obs[o] = dataState{bucket: bucketOf[o], acc: scratchAcc(o)}
	}
	scratch := &mirror{moved: make([]bool, numData)}
	pat := make([]patch, buckets)

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
		// Each dirty query diffs its row, folds the changes into its patch
		// table and takes a patch for each clean member whose pair changed,
		// exactly as computeQuery does.
		folded := map[int32][]record{}
		for q, st := range qs {
			var ups []update
			for i, d := range members[q] {
				if nb, ok := moves[d]; ok {
					ups = append(ups, update{int32(i), nb})
				}
			}
			if len(ups) == 0 {
				continue
			}
			scratch.applyTracked(int32(q), st, ups)
			changes := scratch.changed(st)
			patches(tb, changes, pat)
			for i, d := range members[q] {
				p := pat[st.memberLocal[i]]
				if scratch.moved[i] || !p.hit {
					continue
				}
				rec := patchRecord(d, p.delta)
				if want := st.bucket(st.memberLocal[i]); want != bucketOf[d] {
					t.Fatalf("round %d: query %d holds member %d in bucket %d, want %d", round, q, d, want, bucketOf[d])
				}
				// Single-record wire round trip.
				got, used, err := wire.Decode(envelopeBytes(rec), nil)
				if err != nil || len(got) != 1 || got[0] != rec {
					t.Fatalf("round %d: patch round trip: got %+v (used %d, err %v), want %+v",
						round, got, used, err, rec)
				}
				if _, ok := obs[d]; ok {
					folded[d] = append(folded[d], rec)
				}
			}
			unpatch(changes, pat)
			if slices.ContainsFunc(pat, func(p patch) bool { return p != patch{} }) {
				t.Fatalf("round %d: query %d left the patch table %v", round, q, pat)
			}
			clear(scratch.moved)
		}
		for d, nb := range moves {
			bucketOf[d] = nb
		}
		// Both sides of the per-worker fold: an observer's patches add into
		// one record (gainFold), or ship unfolded as one batch (noFold).
		// Each round-trips the wire, and they patch the observer by the
		// same sums, which its worker adds as it hears them.
		fold := newGainFold(heard.host)
		for _, o := range observers {
			recs := folded[o]
			if len(recs) == 0 {
				continue
			}
			for _, rec := range recs {
				fold.add(nil, rec)
			}
			held := record{kind: fold.kind[o], id: o, word: uint64(fold.acc[o])}
			one, _, err := wire.Decode(envelopeBytes(held), nil)
			batch, _, berr := wire.Decode(envelopeBytes(recs...), nil)
			if err != nil || berr != nil || len(one) != 1 || !slices.Equal(batch, recs) {
				t.Fatalf("round %d: folded patch or batch of %d round trip failed (err %v, %v)", round, len(recs), err, berr)
			}
			var batchAcc int64
			for _, rec := range batch {
				batchAcc += rec.acc()
			}
			if one[0].kind != kindPatch || one[0].acc() != batchAcc {
				t.Fatalf("round %d: observer %d folded %+v, batch adds to %d", round, o, one[0], batchAcc)
			}
			heard.hear(0, one)
			obs[o].heard = kindBucket
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
			if got, want := obs[o].acc, scratchAcc(o); got != want {
				t.Fatalf("round %d: observer %d patched accumulator %v != rebuilt %v", round, o, got, want)
			}
		}
	}
}

// TestQueryInvariantPanicsNameTheQuery checks that the query-side protocol
// violations — an update at a slot past the query's members, a move that is
// not to the sibling within the registered pair, a row that lost a member's
// pin — panic naming the query, the only lead a corrupt-counts crash leaves.
func TestQueryInvariantPanicsNameTheQuery(t *testing.T) {
	members := []int32{3, 5, 9}
	fresh := func() *queryState {
		st := newQuery(len(members), 8)
		st.register(42, 1, members, coinTable(0, 1, 10), []update{{0, 0}, {1, 1}, {2, 3}}, make([]int32, 4))
		return st
	}
	for _, c := range []struct {
		name string
		run  func(st *queryState)
	}{
		{"slot out of range", func(st *queryState) { st.applyUpdate(42, update{3, 0}, nil) }},
		{"negative slot", func(st *queryState) { st.applyUpdate(42, update{-1, 0}, nil) }},
		{"registration slot out of range", func(st *queryState) {
			st.register(42, 2, members, coinTable(0, 2, 10), []update{{3, 0}}, make([]int32, 4))
		}},
		{"new pair", func(st *queryState) { st.applyUpdate(42, update{0, 4}, nil) }},
		{"not a move", func(st *queryState) { st.applyUpdate(42, update{2, 3}, nil) }},
		{"lost pin", func(st *queryState) {
			st.row.Transfer(42, 1, 0) // member 5's pin leaves bucket 1 behind the registry's back
			st.applyUpdate(42, update{1, 0}, nil)
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

// registry returns the bucket ids a query's registry holds for its members.
func registry(st *queryState) []int32 {
	out := make([]int32, len(st.memberLocal))
	for i, l := range st.memberLocal {
		out[i] = st.bucket(l)
	}
	return out
}

// TestDerivedRegistrationMatchesFull pins the level start's derived
// registry: a query that splits its own registry and hears only from the
// members that moved in the previous iteration must end with the registry,
// pairs and row of a query that heard every member's post-split bucket.
// Levels 0–2, random prior registries (what a query holds at the end of the
// previous level: the movers' pre-move buckets) and random mover subsets.
// Every registration shares one pair table, which must be all zero again
// after each.
func TestDerivedRegistrationMatchesFull(t *testing.T) {
	const k, seed = 8, 77
	r := rng.New(606)
	pairAt := make([]int32, k/2)
	register := func(st *queryState, level int, members []int32, movers []update) {
		st.register(42, level, members, coinTable(seed, level, 200), movers, pairAt)
		if slices.ContainsFunc(pairAt, func(e int32) bool { return e != 0 }) {
			t.Fatalf("registration left the pair table %v", pairAt)
		}
	}
	for trial := 0; trial < 200; trial++ {
		level := trial % 3
		var members []int32 // a sorted adjacency list
		for n := 1 + r.Intn(20); n > 0; n-- {
			members = append(members, int32(r.Intn(200)))
		}
		slices.Sort(members)
		members = slices.Compact(members)
		derived := newQuery(len(members), k)
		pre := make([]int32, len(members)) // each member's bucket before the split; none at level 0
		var movers []update
		if level > 0 {
			var prior []update
			for i := range members {
				pre[i] = int32(r.Intn(1 << level))
				prior = append(prior, update{int32(i), pre[i]})
			}
			register(derived, level-1, members, prior)
			for i, d := range members {
				if r.Intn(3) == 0 {
					pre[i] ^= 1 // moved in the last iteration, unseen by the query
					movers = append(movers, update{int32(i), splitBucket(seed, level, d, pre[i])})
				}
			}
		}
		register(derived, level, members, movers)

		want := make([]int32, len(members))
		var all []update
		for i, d := range members {
			want[i] = splitBucket(seed, level, d, pre[i])
			all = append(all, update{int32(i), want[i]})
		}
		full := newQuery(len(members), k)
		register(full, level, members, all)

		label := fmt.Sprintf("trial %d, level %d, %d of %d members moved", trial, level, len(movers), len(members))
		if got := registry(full); !slices.Equal(got, want) {
			t.Fatalf("%s: full registration %v, want %v", label, got, want)
		}
		if got := registry(derived); !slices.Equal(got, want) {
			t.Fatalf("%s: registry %v, want %v", label, got, want)
		}
		if !slices.Equal(derived.memberLocal, full.memberLocal) {
			t.Fatalf("%s: local buckets %v, want %v", label, derived.memberLocal, full.memberLocal)
		}
		if !slices.Equal(derived.pairs, full.pairs) {
			t.Fatalf("%s: pairs %v, want %v", label, derived.pairs, full.pairs)
		}
		if diff := derived.row.Diff(nil, full.row); len(diff) > 0 || derived.row.Live() != full.row.Live() {
			t.Fatalf("%s: row differs from the full registration's: %v", label, diff)
		}
		if v := rowViolation(derived, want, k); v != "" {
			t.Fatalf("%s: %s", label, v)
		}
	}
}

// TestDeltaWireSize pins the gain and patch encoding: a query folds its
// changed counts into the one accumulator change itself, so a patch is the
// one int64 a gain is, 8 bytes. The per-worker fold leaves one record per
// (worker, vertex), flushed by ascending id to the vertex's worker, so a
// batch of n costs its header byte and count, and per record an id code of
// one byte while the id is within 63 of the last, and the payload: 2 + 9n
// bytes for a dense run. Unfolded records, in any order, carry their ids
// whole.
func TestDeltaWireSize(t *testing.T) {
	if payloadSize != 8 {
		t.Fatalf("payload = %d bytes, want 8 (Δacc)", payloadSize)
	}
	for _, rec := range []record{patchRecord(0, -3), gainRecord(62, 5)} {
		if got := len(envelopeBytes(rec)); got != 2+9 {
			t.Fatalf("encoded %+v is %d bytes, want 11", rec, got)
		}
		if sz, err := wideWire.Size([]record{rec}); err != nil || sz != 11 {
			t.Fatalf("Size %d (%v), want 11", sz, err)
		}
	}
	batch := []record{patchRecord(5, 5), gainRecord(9, 4), patchRecord(72, -1)}
	if got := len(envelopeBytes(batch...)); got != 2+9*3 {
		t.Fatalf("a batch of 3 records within 63 ids of each other is %d bytes, want 29", got)
	}
	if sz, err := wideWire.Size(batch); err != nil || sz != 29 {
		t.Fatalf("Size %d (%v), want 29", sz, err)
	}
	far := []record{patchRecord(5, 5), gainRecord(69, 4)} // a gap of 64 takes two bytes
	if got := len(envelopeBytes(far...)); got != 2+9+10 {
		t.Fatalf("a batch with a gap of 64 is %d bytes, want 21", got)
	}
	unfolded := []record{patchRecord(200, 1), patchRecord(3, 2), patchRecord(200, 3)}
	if got := len(envelopeBytes(unfolded...)); got != 2+10+9+10 {
		t.Fatalf("an unfolded batch is %d bytes, want 31", got)
	}
}

// TestDistDeltaCutsLateSuperstepBytes asserts the tentpole claim: once the
// moved fraction falls to <= 1%, the delta plane's gain-superstep traffic is
// at least 3x smaller than that of a full rebroadcast every iteration
// (sweepEvery 1, which stays O(|E|) per iteration no matter how little
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
	opts.sweepEvery = 1
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
	opts.sweepEvery = 1
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

// BenchmarkDistDelta quantifies the dirty-query delta plane: the
// "incremental" (patched) and "full" (sweepEvery 1) runs are byte-identical
// in quality (pinned by TestDistIncrementalMatchesFull), so the interesting
// metrics are the gain-superstep bytes of late iterations (moved fraction
// <= 1%), where the delta plane ships churn-proportional traffic while the
// full rebroadcast stays O(|E|). Compare late-bytes/superstep between the
// two sub-benchmarks; the reduction should be well above 3x.
func BenchmarkDistDelta(b *testing.B) {
	g, err := gen.SocialEgoNets(8000, 12, 80, 0.85, 1)
	if err != nil {
		b.Fatal(err)
	}
	g = hypergraph.PruneTrivialQueries(g, 2)
	for _, tc := range []struct {
		name       string
		sweepEvery int
	}{
		{"incremental", 0},
		{"full", 1},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var lateBytes, lateIters, totalBytes float64
			for i := 0; i < b.N; i++ {
				res, err := Partition(g, Options{
					K: 16, Seed: 1, Workers: 4, MinMoveFraction: 1e-9,
					sweepEvery: tc.sweepEvery,
				})
				if err != nil {
					b.Fatal(err)
				}
				n, lb := res.LateGainBytes(0.01)
				lateBytes = float64(lb)
				lateIters = float64(n)
				totalBytes = float64(res.Stats.TotalBytes)
			}
			if lateIters > 0 {
				b.ReportMetric(lateBytes/lateIters, "late-bytes/superstep")
			}
			b.ReportMetric(totalBytes, "msg-bytes")
		})
	}
}

// TestDistHearRefusesMisroutedRecords checks the superstep-2 hook's
// invariants: a gain or patch for a vertex another worker hosts, or for an
// id past the data vertices, and a gain/patch mix for one vertex panic
// naming the vertex, where folding them in would corrupt an accumulator no
// vertex of the worker reads. A vertex's own worker adds its records.
func TestDistHearRefusesMisroutedRecords(t *testing.T) {
	g := randomBipartite(t, 7, 30, 40, 120)
	s := newRunState(g, &schedule{opts: Options{K: 4, Workers: 3}.withDefaults()})
	numD := int32(g.NumData())
	d := int32(slices.IndexFunc(s.host, func(w int32) bool { return w == 1 }))
	for _, c := range []struct {
		name string
		w    int
		recs []record
		want string
	}{
		{"gain for another worker's vertex", 0, []record{gainRecord(d, 3)}, fmt.Sprintf("vertex %d,", d)},
		{"patch for another worker's vertex", 2, []record{patchRecord(d, 3)}, fmt.Sprintf("vertex %d,", d)},
		{"id past the data vertices", 1, []record{gainRecord(numD, 1)}, fmt.Sprintf("vertex %d,", numD)},
		{"negative id", 1, []record{patchRecord(-1, 1)}, "vertex -1,"},
		{"gain then patch", 1, []record{gainRecord(d, 1), patchRecord(d, 2)}, fmt.Sprintf("vertex %d received", d)},
		{"patch then gain", 1, []record{patchRecord(d, 1), gainRecord(d, 2)}, fmt.Sprintf("vertex %d received", d)},
		{"mover", 1, []record{moverRecord(d, 1)}, fmt.Sprintf("vertex %d received", d)},
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, c.want) {
					t.Errorf("%s: panic %q does not name %q", c.name, msg, c.want)
				}
			}()
			s.data[d] = dataState{}
			s.hear(c.w, c.recs)
		}()
	}
	s.data[d] = dataState{acc: 100}
	s.hear(1, []record{patchRecord(d, 5), patchRecord(d, -2)})
	if st := s.data[d]; st.acc != 103 || st.heard != kindPatch {
		t.Fatalf("patches: acc %d, heard %d; want 103, %d", st.acc, st.heard, kindPatch)
	}
	s.data[d] = dataState{acc: 100}
	s.hear(1, []record{gainRecord(d, 5), gainRecord(d, -2)})
	if st := s.data[d]; st.acc != 3 || st.heard != kindGain {
		t.Fatalf("gains: acc %d, heard %d; want the resum 3, %d", st.acc, st.heard, kindGain)
	}
}
