package distshp

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"shp/internal/core"
	"shp/internal/hypergraph"
	"shp/internal/partition"
	"shp/internal/pregel"
	"shp/internal/rng"
)

func randomBipartite(tb testing.TB, seed uint64, numQ, numD, edges int) *hypergraph.Bipartite {
	tb.Helper()
	r := rng.New(seed)
	b := hypergraph.NewBuilder(numQ, numD)
	for i := 0; i < edges; i++ {
		b.AddEdge(int32(r.Intn(numQ)), int32(r.Intn(numD)))
	}
	g, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

func plantedGraph(tb testing.TB, communities, perCommunity, queries, qdeg int) *hypergraph.Bipartite {
	tb.Helper()
	r := rng.New(1234)
	nd := communities * perCommunity
	b := hypergraph.NewBuilder(queries, nd)
	for q := 0; q < queries; q++ {
		c := q % communities
		for e := 0; e < qdeg; e++ {
			b.AddEdge(int32(q), int32(c*perCommunity+r.Intn(perCommunity)))
		}
	}
	g, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

func TestPartitionValidAndBalanced(t *testing.T) {
	g := randomBipartite(t, 7, 300, 500, 3000)
	res, err := Partition(g, Options{K: 4, Seed: 1, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Assignment.Validate(4); err != nil {
		t.Fatal(err)
	}
	// Distributed SHP preserves balance in expectation only (like the
	// paper); allow CLT-scale tolerance on this small graph.
	if imb := partition.Imbalance(res.Assignment, 4); imb > 0.30 {
		t.Fatalf("imbalance %v too large even for in-expectation balance", imb)
	}
	if res.Levels != 2 {
		t.Fatalf("Levels = %d, want 2", res.Levels)
	}
	if res.Stats == nil || res.Stats.Supersteps == 0 {
		t.Fatal("missing engine stats")
	}
}

func TestPartitionReducesFanout(t *testing.T) {
	g := plantedGraph(t, 4, 120, 600, 6)
	randomF := partition.Fanout(g, partition.Random(480, 4, 3), 4)
	res, err := Partition(g, Options{K: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	f := partition.Fanout(g, res.Assignment, 4)
	if f >= randomF*0.7 {
		t.Fatalf("distributed SHP fanout %v did not improve enough over random %v on planted communities", f, randomF)
	}
}

func TestMatchesSingleMachineQuality(t *testing.T) {
	// The distributed and single-machine implementations run the same
	// algorithm; their fanout should land in the same ballpark.
	g := plantedGraph(t, 8, 60, 600, 5)
	dres, err := Partition(g, Options{K: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sres, err := core.Partition(g, core.Options{K: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	df := partition.Fanout(g, dres.Assignment, 8)
	sf := partition.Fanout(g, sres.Assignment, 8)
	if df > sf*1.5+0.5 {
		t.Fatalf("distributed fanout %v much worse than single-machine %v", df, sf)
	}
}

// TestWorkerCountInvariantResult: the worker count moves which worker runs
// each query, what its mirror table and fold hold, and which vertices a
// full superstep's flush sends a gain (the worker's mirrored ones); none of
// it may move the result. Workers 1, 2, 3, 5 and 8, on both transports and
// with the fold on and off, must each give the one-worker run's assignment
// and history.
func TestWorkerCountInvariantResult(t *testing.T) {
	g := randomBipartite(t, 11, 200, 300, 1500)
	base, err := Partition(g, Options{K: 4, Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []struct {
		name string
		make func() pregel.Transport
	}{{"memory", pregel.MemoryTransport}, {"tcp", pregel.TCPTransport}} {
		for _, workers := range []int{1, 2, 3, 5, 8} {
			for _, noFold := range []bool{false, true} {
				res, err := Partition(g, Options{K: 4, Seed: 5, Workers: workers, Transport: tr.make(), noFold: noFold})
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, fmt.Sprintf("%s, %d workers, noFold %v", tr.name, workers, noFold), base, res)
			}
		}
	}
}

func TestCommunicationBoundedByFanoutTimesEdges(t *testing.T) {
	// Section 3.3: superstep 1 sends at most one (pair-sized) ND message
	// per edge per iteration, so total traffic is O(|E|) per iteration.
	g := randomBipartite(t, 17, 300, 400, 2500)
	res, err := Partition(g, Options{K: 2, Seed: 7, ItersPerLevel: 5})
	if err != nil {
		t.Fatal(err)
	}
	perIter := float64(res.Stats.TotalMessages) / float64(res.Iterations)
	bound := 2.5 * float64(g.NumEdges()) // bucket sends + ND sends + slack
	if perIter > bound {
		t.Fatalf("messages per iteration %v exceed O(|E|) bound %v", perIter, bound)
	}
}

// TestLevelStartShipsOnlyMovers pins what a level start sends: queries
// derive their members' split, so level 0's superstep 0 sends no record and a
// later level's first superstep carries only the bucket records of the
// previous iteration's movers — at most one envelope per mover and adjacent
// query. A short level cap makes levels end while vertices still move.
func TestLevelStartShipsOnlyMovers(t *testing.T) {
	transports := []struct {
		name string
		make func() pregel.Transport
	}{
		{"memory", func() pregel.Transport { return nil }},
		{"tcp", pregel.TCPTransport},
	}
	for _, seed := range []uint64{41, 42} {
		g := randomBipartite(t, seed, 250, 400, 2200)
		maxDeg := 0
		for d := 0; d < g.NumData(); d++ {
			maxDeg = max(maxDeg, g.DataDegree(int32(d)))
		}
		for _, tr := range transports {
			res, err := Partition(g, Options{K: 8, Seed: seed, Workers: 2, ItersPerLevel: 4, Transport: tr.make()})
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("seed %d/%s", seed, tr.name)
			// Superstep 3 never sends a record, so its bytes are the bare
			// barrier's: nothing in memory, the frame headers over TCP.
			s, bare := res.Stats.PerSuperstep[0], res.Stats.PerSuperstep[3]
			if s.MessagesSent != 0 || s.BytesSent != bare.BytesSent || (tr.name == "memory" && s.BytesSent != 0) {
				t.Fatalf("%s: level 0's superstep 0 sent %d envelopes, %d bytes; want none beyond the %d of a bare barrier",
					label, s.MessagesSent, s.BytesSent, bare.BytesSent)
			}
			shipped := false
			for j, rec := range res.History {
				if j == 0 || rec.Iter != 0 {
					continue
				}
				sent := res.Stats.PerSuperstep[4*j].MessagesSent
				if bound := res.History[j-1].Moved * int64(maxDeg); sent > bound {
					t.Fatalf("%s: level %d start sent %d envelopes, above %d movers x degree %d",
						label, rec.Level, sent, res.History[j-1].Moved, maxDeg)
				}
				shipped = shipped || sent > 0
			}
			if !shipped {
				t.Fatalf("%s: no level start shipped a mover; the cap did not bite", label)
			}
		}
	}
}

// TestMirrorTables checks every worker's mirror table against the graph:
// data vertex d's entries on worker w are exactly its queries placed on w,
// ascending, each with d's slot in that query's member list.
func TestMirrorTables(t *testing.T) {
	g := randomBipartite(t, 19, 120, 200, 900)
	for _, workers := range []int{1, 2, 3} {
		workerOf := func(id int) int { return pregel.HashWorker(pregel.VertexID(id), workers) }
		numD := g.NumData()
		ms := newMirrors(g, 8, workers, func(q int32) int { return workerOf(numD + int(q)) })
		for d := int32(0); d < int32(numD); d++ {
			for w := range ms {
				var want []memberRef
				for _, q := range g.DataNeighbors(d) {
					if workerOf(numD+int(q)) == w {
						i := slices.Index(ms[w].queries, q)
						slot := slices.Index(g.QueryNeighbors(q), d)
						want = append(want, memberRef{q: int32(i), slot: int32(slot)})
					}
				}
				if got := ms[w].of(d); !slices.Equal(got, want) {
					t.Fatalf("%d workers: vertex %d on worker %d: %v, want %v", workers, d, w, got, want)
				}
			}
		}
	}
}

// TestEngineHoldsOnlyDataVertices pins where vertices live: data vertices
// and queries are state of their workers, run from the workers' hooks, so on
// both transports the engine runs no vertex in any superstep. Each level
// start's superstep 1 ships what the per-worker fold makes of it: one
// envelope per (source worker, destination worker), addressed to the
// destination worker, carrying one gain per data vertex that the source
// mirrors and the destination hosts, by ascending id (an id code and 8
// bytes each behind the envelope's header, the worker group's id 0 of an
// engine with no vertices, and count, on the memory transport). No record
// is addressed to a vertex.
func TestEngineHoldsOnlyDataVertices(t *testing.T) {
	const workers = 3
	g := randomBipartite(t, 29, 150, 260, 1400)
	numD := g.NumData()
	var envelopes, bytes int64
	for src := 0; src < workers; src++ {
		mirrored := make([]bool, numD)
		for q := 0; q < g.NumQueries(); q++ {
			if pregel.HashWorker(pregel.VertexID(numD+q), workers) == src {
				for _, d := range g.QueryNeighbors(int32(q)) {
					mirrored[d] = true
				}
			}
		}
		for dst := 0; dst < workers; dst++ {
			var recs []record
			for d, ok := range mirrored {
				if ok && pregel.HashWorker(pregel.VertexID(d), workers) == dst {
					recs = append(recs, gainRecord(int32(d), 0))
				}
			}
			if len(recs) == 0 {
				continue
			}
			envelopes++
			bytes += int64(uvarintLen(0) + len(envelopeBytes(recs...)))
		}
	}
	for _, tr := range []struct {
		name string
		make func() pregel.Transport
	}{{"memory", pregel.MemoryTransport}, {"tcp", pregel.TCPTransport}} {
		res, err := Partition(g, Options{K: 4, Seed: 3, Workers: workers, Transport: tr.make()})
		if err != nil {
			t.Fatal(err)
		}
		for _, ss := range res.Stats.PerSuperstep {
			if ss.ActiveVertices != 0 || ss.MaxWorkerActive != 0 {
				t.Fatalf("%s: superstep %d ran %d engine vertices, %d on the busiest worker", tr.name, ss.Superstep, ss.ActiveVertices, ss.MaxWorkerActive)
			}
		}
		starts := 0
		for j, rec := range res.History {
			if rec.Iter != 0 {
				continue
			}
			starts++
			ss := res.Stats.PerSuperstep[4*j+1]
			if ss.MessagesSent != envelopes || tr.name == "memory" && ss.BytesSent != bytes {
				t.Fatalf("%s: level %d's gain superstep sent %d envelopes, %d bytes; want %d, %d",
					tr.name, rec.Level, ss.MessagesSent, ss.BytesSent, envelopes, bytes)
			}
		}
		if starts != 2 {
			t.Fatalf("%s: %d level starts, want 2", tr.name, starts)
		}
	}
}

// TestBucketSuperstepShipsOneRecordPerMoverAndWorker pins superstep 0's
// traffic on the memory transport: one mover record per (mover, worker that
// hosts one of its queries), batched into one envelope per (source worker,
// destination worker), and nothing else. Iteration 0's movers are read off
// a run that stops after it: the vertices that left their level-0 split.
func TestBucketSuperstepShipsOneRecordPerMoverAndWorker(t *testing.T) {
	const seed = 5
	g := randomBipartite(t, 23, 250, 400, 2200)
	numD := g.NumData()
	header := uvarintLen(0) // the worker group's id on an engine with no vertices
	for _, workers := range []int{2, 3} {
		one, err := Partition(g, Options{K: 2, Seed: seed, Workers: workers, ItersPerLevel: 1})
		if err != nil {
			t.Fatal(err)
		}
		two, err := Partition(g, Options{K: 2, Seed: seed, Workers: workers, ItersPerLevel: 2, MinMoveFraction: 1e-12})
		if err != nil {
			t.Fatal(err)
		}
		if len(two.History) != 2 || two.History[0] != one.History[0] {
			t.Fatalf("%d workers: histories %+v and %+v do not share iteration 0", workers, one.History, two.History)
		}
		workerOf := func(id int) int { return pregel.HashWorker(pregel.VertexID(id), workers) }
		records := map[[2]int]int{} // per (source worker, destination worker)
		movers := int64(0)
		for d := 0; d < numD; d++ {
			if one.Assignment[d] == splitBucket(seed, 0, int32(d), -1) {
				continue
			}
			movers++
			hosts := map[int]bool{}
			for _, q := range g.DataNeighbors(int32(d)) {
				hosts[workerOf(numD+int(q))] = true
			}
			for w := range hosts {
				records[[2]int{workerOf(d), w}]++
			}
		}
		if movers == 0 || movers != one.History[0].Moved {
			t.Fatalf("%d workers: %d movers, history says %d", workers, movers, one.History[0].Moved)
		}
		var envelopes, bytes int64
		for _, n := range records {
			envelopes++
			bytes += int64(header + 1 + 8*n)
			if n > 1 {
				bytes += int64(uvarintLen(uint64(n)))
			}
		}
		if ss := two.Stats.PerSuperstep[4]; ss.MessagesSent != envelopes || ss.BytesSent != bytes {
			t.Fatalf("%d workers: superstep 0 of iteration 1 sent %d envelopes, %d bytes; want %d, %d",
				workers, ss.MessagesSent, ss.BytesSent, envelopes, bytes)
		}
	}
}

// TestNegativeItersPerLevelRejected: a negative cap is an option error at
// every K, not one iteration per level at K = 2 and an engine error about
// MaxSupersteps beyond.
func TestNegativeItersPerLevelRejected(t *testing.T) {
	g := randomBipartite(t, 3, 40, 60, 200)
	for _, k := range []int{2, 4, 8} {
		_, err := Partition(g, Options{K: k, Seed: 1, ItersPerLevel: -1})
		if err == nil || !strings.HasPrefix(err.Error(), "distshp: ItersPerLevel") {
			t.Errorf("K=%d, ItersPerLevel -1: err %v, want a distshp: ItersPerLevel error", k, err)
		}
	}
}

func TestTransportEquivalence(t *testing.T) {
	// The same seed must produce a byte-identical bucket assignment whether
	// messages move in-process or over loopback TCP sockets.
	g := randomBipartite(t, 29, 250, 400, 2000)
	mem, err := Partition(g, Options{K: 4, Seed: 11, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := Partition(g, Options{K: 4, Seed: 11, Workers: 4, Transport: pregel.TCPTransport()})
	if err != nil {
		t.Fatal(err)
	}
	for i := range mem.Assignment {
		if mem.Assignment[i] != tcp.Assignment[i] {
			t.Fatalf("transports disagree at vertex %d: %d vs %d", i, mem.Assignment[i], tcp.Assignment[i])
		}
	}
	if mem.Stats.TotalMessages != tcp.Stats.TotalMessages ||
		mem.Stats.RemoteMessages != tcp.Stats.RemoteMessages {
		t.Fatalf("message accounting differs across transports: %+v vs %+v", mem.Stats, tcp.Stats)
	}
	// TCP bytes come from encoded frames on the wire, not an estimate.
	if tcp.Stats.TotalBytes == 0 {
		t.Fatal("TCP run measured zero wire bytes")
	}
	if tcp.Stats.TotalBytes == mem.Stats.TotalBytes {
		t.Fatal("TCP bytes should be framed wire truth, not the in-process size accounting")
	}
}

func TestCombinerReducesCrossWorkerTraffic(t *testing.T) {
	// The per-worker fold of gains and patches must strictly reduce the
	// bytes crossing workers while leaving the partition alone: the move
	// protocol is unchanged, only the order of integer gain sums differs.
	// It ships no fewer envelopes: the engine already gathers a worker's
	// records for one vertex into one, folded or not.
	g := plantedGraph(t, 4, 150, 700, 6)
	combined, err := Partition(g, Options{K: 4, Seed: 13, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Partition(g, Options{K: 4, Seed: 13, Workers: 4, noFold: true})
	if err != nil {
		t.Fatal(err)
	}
	if combined.Stats.RemoteMessages != plain.Stats.RemoteMessages {
		t.Fatalf("folding changed the cross-worker envelopes: %d vs %d",
			combined.Stats.RemoteMessages, plain.Stats.RemoteMessages)
	}
	if combined.Stats.TotalBytes >= plain.Stats.TotalBytes {
		t.Fatalf("combining did not reduce bytes: %d vs %d",
			combined.Stats.TotalBytes, plain.Stats.TotalBytes)
	}
	if !slices.Equal(combined.Assignment, plain.Assignment) {
		t.Fatalf("combined fanout %v, uncombined %v: the assignments differ",
			partition.Fanout(g, combined.Assignment, 4), partition.Fanout(g, plain.Assignment, 4))
	}
	if err := combined.Assignment.Validate(4); err != nil {
		t.Fatal(err)
	}
}

func TestCombinerInvariantOnSingleWorker(t *testing.T) {
	// With one worker every message is local and the per-worker fold
	// collapses each data vertex's gain or patch traffic to a single
	// record whose sum order matches the unfolded delivery order exactly,
	// so the partitions must be identical, not merely close. Both ship one
	// envelope per data vertex; the folded one is smaller.
	g := randomBipartite(t, 31, 200, 300, 1500)
	combined, err := Partition(g, Options{K: 4, Seed: 17, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Partition(g, Options{K: 4, Seed: 17, Workers: 1, noFold: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range combined.Assignment {
		if combined.Assignment[i] != plain.Assignment[i] {
			t.Fatalf("combining changed the partition at vertex %d", i)
		}
	}
	if combined.Stats.TotalMessages != plain.Stats.TotalMessages {
		t.Fatalf("folding changed the envelopes: %d vs %d",
			combined.Stats.TotalMessages, plain.Stats.TotalMessages)
	}
	if combined.Stats.TotalBytes >= plain.Stats.TotalBytes {
		t.Fatalf("folding did not reduce bytes: %d vs %d",
			combined.Stats.TotalBytes, plain.Stats.TotalBytes)
	}
}

func TestInvalidOptions(t *testing.T) {
	g := randomBipartite(t, 1, 10, 10, 30)
	for _, k := range []int{0, 1, 3, 6, 100} {
		if _, err := Partition(g, Options{K: k}); err == nil {
			t.Errorf("K=%d should be rejected (not a power of two >= 2)", k)
		}
	}
	empty, _ := hypergraph.FromEdges(0, 0, nil)
	if _, err := Partition(empty, Options{K: 2}); err == nil {
		t.Error("empty graph should be rejected")
	}
}

func TestTotalTimeScalesWithWorkers(t *testing.T) {
	g := randomBipartite(t, 19, 100, 150, 800)
	res, err := Partition(g, Options{K: 2, Seed: 8, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime != res.Elapsed*4 {
		t.Fatalf("TotalTime %v != Elapsed %v * 4", res.TotalTime, res.Elapsed)
	}
}

func TestLargeK(t *testing.T) {
	g := randomBipartite(t, 23, 500, 1024, 4000)
	res, err := Partition(g, Options{K: 32, Seed: 9, ItersPerLevel: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Assignment.Validate(32); err != nil {
		t.Fatal(err)
	}
	sizes := partition.BucketSizes(res.Assignment, 32)
	empties := 0
	for _, s := range sizes {
		if s == 0 {
			empties++
		}
	}
	if empties > 3 {
		t.Fatalf("%d of 32 buckets empty", empties)
	}
}

// TestDistDataStepVisitsFrontier pins which data vertices a worker's hook
// runs. Every vertex is set up with no proposal at level 1, so it registers
// one if superstep 2 runs it, while the mover lists name only some of them
// and gains reach only some others. Superstep 0 must send exactly the
// movers' buckets, one record to each worker mirroring the mover, and leave
// the other buckets alone, except that a level start splits every bucket.
// Superstep 2 must run exactly the vertices that heard a gain and the
// movers, or every vertex at a level start. The hooks run dataStep on an
// engine of their own, which sends the gains in superstep 1.
func TestDistDataStepVisitsFrontier(t *testing.T) {
	const workers, k, seed = 2, 8, 1
	g := randomBipartite(t, 31, 60, 90, 400)
	numD := g.NumData()
	isMover := func(d int) bool { return d%3 == 0 }
	isHeard := func(d int) bool { return d%5 == 0 }
	tables := make([]core.GainTables, 3)
	for l := range tables {
		tables[l] = core.NewPFanoutTables(0.5, k>>(l+1), g.MaxQueryDegree())
	}
	for _, levelStart := range []bool{false, true} {
		sched := &schedule{opts: Options{K: k, Workers: workers, Seed: seed}.withDefaults(), levels: 3, level: 1,
			ideal: float64(numD) / k}
		if !levelStart {
			sched.iter = 1
		}
		sched.resetPlane()
		s := newRunState(g, sched)
		before := make([]int32, numD) // each bucket before superstep 0
		for d := range s.data {
			before[d] = splitBucket(seed, 0, int32(d), -1)
			if !levelStart {
				before[d] = splitBucket(seed, 1, int32(d), before[d])
			}
			s.data[d] = dataState{bucket: before[d], propLevel: -1}
		}
		for w, ids := range s.hosted {
			for _, d := range ids {
				if isMover(int(d)) {
					s.movers[w] = append(s.movers[w], d)
				}
			}
		}
		var after []int32                 // each bucket after superstep 0
		sent := make([][]record, workers) // what superstep 0 sent each worker
		eng, err := pregel.NewEngineOf(pregel.OptionsOf[record, workerAgg]{
			Workers:       workers,
			MaxSupersteps: 3,
			Codecs:        recordCodec{k: k, numData: int32(numD)},
			PreSuperstep: func(ctx *pregel.ContextOf[record, workerAgg], recs []record) {
				w := ctx.Worker()
				if ctx.Superstep() != 1 {
					s.dataStep(ctx, g, tables, w, recs)
					return
				}
				sent[w] = slices.Clone(recs)
				// Worker 0 sends the gains, each to its vertex's host.
				for d := 0; d < numD && w == 0; d++ {
					if isHeard(d) {
						ctx.SendWorker(int(s.host[d]), gainRecord(int32(d), 3))
					}
				}
			},
			Master: func(step int, _ []*workerAgg) bool {
				if step == 0 {
					for d := range s.data {
						after = append(after, s.data[d].bucket)
					}
				}
				return step == 2
			},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		for d, st := range s.data {
			want := before[d]
			if levelStart {
				want = splitBucket(seed, 1, int32(d), before[d])
			}
			if after[d] != want {
				t.Fatalf("level start %v: superstep 0 left vertex %d in bucket %d, want %d", levelStart, d, after[d], want)
			}
			if ran, want := st.propLevel == 1, levelStart || isMover(d) || isHeard(d); ran != want {
				t.Fatalf("level start %v: superstep 2 ran vertex %d: %v, want %v", levelStart, d, ran, want)
			}
			if st.heard != kindBucket {
				t.Fatalf("level start %v: vertex %d kept its heard mark", levelStart, d)
			}
		}
		for w := range sent {
			var want []record
			for d := 0; d < numD; d++ {
				if isMover(d) && s.mirrors[w].mirrors(d) {
					want = append(want, moverRecord(int32(d), after[d]))
				}
			}
			slices.SortFunc(sent[w], func(a, b record) int { return int(a.id - b.id) })
			if !slices.Equal(sent[w], want) {
				t.Fatalf("level start %v: worker %d was sent %+v, want %+v", levelStart, w, sent[w], want)
			}
			if len(s.heard[w]) != 0 {
				t.Fatalf("level start %v: worker %d kept %d heard vertices", levelStart, w, len(s.heard[w]))
			}
		}
	}
}
