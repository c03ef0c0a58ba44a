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

func TestWorkerCountInvariantResult(t *testing.T) {
	g := randomBipartite(t, 11, 200, 300, 1500)
	a, err := Partition(g, Options{K: 4, Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Partition(g, Options{K: 4, Seed: 5, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assignment {
		if a.Assignment[i] != b.Assignment[i] {
			t.Fatalf("worker count changed assignment at vertex %d", i)
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

// placement returns where an engine over g's vertices, with the given
// worker count, places each of them: the placement Partition's engine uses.
func placement(tb testing.TB, g *hypergraph.Bipartite, workers int) func(id int) int {
	tb.Helper()
	vertices := make([]*pregel.Vertex, g.NumData()+g.NumQueries())
	for i := range vertices {
		vertices[i] = &pregel.Vertex{ID: pregel.VertexID(i)}
	}
	eng, err := pregel.NewEngineOf(pregel.OptionsOf[record, workerAgg]{Workers: workers, MaxSupersteps: 1,
		Compute: func(*pregel.ContextOf[record, workerAgg], *pregel.Vertex, []record) {}}, vertices)
	if err != nil {
		tb.Fatal(err)
	}
	return func(id int) int { return eng.WorkerOf(pregel.VertexID(id)) }
}

// TestMirrorTables checks every worker's mirror table against the graph:
// data vertex d's entries on worker w are exactly its queries placed on w,
// ascending, each with d's slot in that query's member list.
func TestMirrorTables(t *testing.T) {
	g := randomBipartite(t, 19, 120, 200, 900)
	for _, workers := range []int{1, 2, 3} {
		workerOf := placement(t, g, workers)
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

// TestBucketSuperstepShipsOneRecordPerMoverAndWorker pins superstep 0's
// traffic on the memory transport: one mover record per (mover, worker that
// hosts one of its queries), batched into one envelope per (source worker,
// destination worker), and nothing else. Iteration 0's movers are read off
// a run that stops after it: the vertices that left their level-0 split.
func TestBucketSuperstepShipsOneRecordPerMoverAndWorker(t *testing.T) {
	const seed = 5
	g := randomBipartite(t, 23, 250, 400, 2200)
	numD := g.NumData()
	header := uvarintLen(uint64(numD + g.NumQueries())) // the worker group's id
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
		workerOf := placement(t, g, workers)
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
