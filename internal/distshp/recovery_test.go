package distshp

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"shp/internal/core"
	"shp/internal/pregel"
)

// TestDistRecoveryMatchesUndisturbed is the headline fault-tolerance
// invariant: kill a worker mid-protocol, recover from the last checkpoint,
// and the finished run must be byte-identical — assignments, levels,
// iteration counts, and the full History stream — to the undisturbed run.
// Exercised across seeds, both transports, and checkpoint cadences (cadence
// 1 rolls back a single superstep; cadence 5 replays a partial protocol
// round, crossing phase boundaries).
func TestDistRecoveryMatchesUndisturbed(t *testing.T) {
	for _, seed := range []uint64{31, 32} {
		g := randomBipartite(t, seed, 300, 600, 2400)
		base, err := Partition(g, Options{K: 8, Seed: seed, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name      string
			transport func() pregel.Transport
		}{
			{"memory", pregel.MemoryTransport},
			{"tcp", pregel.TCPTransport},
		} {
			for _, every := range []int{1, 5} {
				label := fmt.Sprintf("seed=%d/%s/every=%d", seed, tc.name, every)
				t.Run(label, func(t *testing.T) {
					faulty, err := Partition(g, Options{
						K: 8, Seed: seed, Workers: 4,
						Transport: pregel.FaultyTransport(tc.transport(), pregel.FaultPlan{
							KillWorker: 2, KillStep: 9,
						}),
						CheckpointEvery: every,
					})
					if err != nil {
						t.Fatal(err)
					}
					requireSameResult(t, label, base, faulty)
					if faulty.Stats.Recoveries < 1 {
						t.Fatalf("%s: Recoveries = %d, want >= 1", label, faulty.Stats.Recoveries)
					}
					if faulty.Stats.CheckpointBytes <= 0 {
						t.Fatalf("%s: CheckpointBytes = %d, want > 0", label, faulty.Stats.CheckpointBytes)
					}
				})
			}
		}
	}
}

// TestDistRecoveryAtEveryPhase kills a worker at each of supersteps 1..12
// with a checkpoint at every superstep, so recovery restores at every phase
// of the protocol — including phase 3, where the master's move
// probabilities are recomputed rather than read back — across a level start
// and a rebroadcast iteration. Every recovered run must match the
// undisturbed one, on the default schedule and on a rebroadcast every
// iteration.
func TestDistRecoveryAtEveryPhase(t *testing.T) {
	const seed, lastKill = 41, 12
	g := randomBipartite(t, seed, 120, 200, 800)
	for _, sweepEvery := range []int{0, 1} {
		opts := Options{K: 4, Seed: seed, Workers: 3, ItersPerLevel: 2, sweepEvery: sweepEvery}
		base, err := Partition(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Iteration j runs supersteps 4j..4j+3. The kills must reach a level
		// start, and an iteration whose superstep 1 rebroadcasts because the
		// policy swept after the one before it.
		policy := opts.withDefaults().iterPolicy()
		levelStart, rebroadcast := false, false
		for j := 1; 4*j+1 <= lastKill && j < len(base.History); j++ {
			prev := base.History[j-1]
			if base.History[j].Iter == 0 {
				levelStart = true
			} else if mode, _ := policy.Next(prev.Iter, prev.Moved, g.NumData()); mode != core.Patch {
				rebroadcast = true
			}
		}
		if !levelStart || !rebroadcast {
			t.Fatalf("sweepEvery %d: kills up to superstep %d reach a level start %v, a rebroadcast %v; want both",
				sweepEvery, lastKill, levelStart, rebroadcast)
		}
		for kill := 1; kill <= lastKill; kill++ {
			label := fmt.Sprintf("sweepEvery %d, kill at %d", sweepEvery, kill)
			opts.Transport = pregel.FaultyTransport(pregel.MemoryTransport(), pregel.FaultPlan{
				KillWorker: 1, KillStep: kill,
			})
			opts.CheckpointEvery = 1
			faulty, err := Partition(g, opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requireSameResult(t, label, base, faulty)
			if faulty.Stats.Recoveries != 1 {
				t.Fatalf("%s: Recoveries = %d, want 1", label, faulty.Stats.Recoveries)
			}
		}
	}
}

// TestDistRecoveryFromDisk runs the kill/recover cycle against the
// persistent checkpoint store.
func TestDistRecoveryFromDisk(t *testing.T) {
	const seed = 7
	g := plantedGraph(t, 8, 40, 160, 6)
	base, err := Partition(g, Options{K: 8, Seed: seed, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := pregel.NewDiskCheckpointer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := Partition(g, Options{
		K: 8, Seed: seed, Workers: 4,
		Transport: pregel.FaultyTransport(pregel.MemoryTransport(), pregel.FaultPlan{
			KillWorker: 1, KillStep: 13,
		}),
		Checkpointer:    cp,
		CheckpointEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "disk recovery", base, faulty)
	if faulty.Stats.Recoveries < 1 {
		t.Fatalf("Recoveries = %d, want >= 1", faulty.Stats.Recoveries)
	}
}

// TestDistCheckpointingIsPureObservation pins that checkpointing never
// perturbs the computation it snapshots: a run with checkpointing disabled
// matches the default (checkpointing-on) run bit for bit, and only the
// latter reports checkpoint bytes.
func TestDistCheckpointingIsPureObservation(t *testing.T) {
	const seed = 19
	g := randomBipartite(t, seed, 250, 500, 2000)
	on, err := Partition(g, Options{K: 8, Seed: seed, Workers: 4, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	off, err := Partition(g, Options{K: 8, Seed: seed, Workers: 4, DisableCheckpointing: true})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "checkpointing on vs off", on, off)
	if on.Stats.CheckpointBytes <= 0 {
		t.Fatalf("checkpointing on: CheckpointBytes = %d, want > 0", on.Stats.CheckpointBytes)
	}
	if off.Stats.CheckpointBytes != 0 {
		t.Fatalf("checkpointing off: CheckpointBytes = %d, want 0", off.Stats.CheckpointBytes)
	}
}

// TestDistTransientDropsRetry: dropped frames are absorbed by in-place
// retries without triggering rollback, and the result is unchanged.
func TestDistTransientDropsRetry(t *testing.T) {
	const seed = 23
	g := randomBipartite(t, seed, 250, 500, 2000)
	base, err := Partition(g, Options{K: 8, Seed: seed, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	dropped, err := Partition(g, Options{
		K: 8, Seed: seed, Workers: 4,
		Transport: pregel.FaultyTransport(pregel.MemoryTransport(), pregel.FaultPlan{
			DropEvery: 7,
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "transient drops", base, dropped)
	if dropped.Stats.RetriedFrames == 0 {
		t.Fatal("RetriedFrames = 0, want > 0")
	}
	if dropped.Stats.Recoveries != 0 {
		t.Fatalf("Recoveries = %d, want 0", dropped.Stats.Recoveries)
	}
}

// TestRestoreRejectsBadRegistries hands the checkpoint hook parts in which
// one query's registry does not fit the query: one entry for a query of
// degree 3 or more, which a resumed run would index past, or a -1 entry,
// which no member can hold. The restore must fail with a *RegistryError
// naming the query and leave the run's vertex states and schedule as they
// were; so must a good part beside a damaged schedule. The good parts then
// restore.
func TestRestoreRejectsBadRegistries(t *testing.T) {
	const seed = 5
	g := randomBipartite(t, seed, 40, 60, 200)
	s := newRunState(g, sampleSchedule())
	for d := range s.data {
		s.data[d].bucket, s.data[d].level = splitBucket(seed, 0, int32(d), -1), 0
	}
	for q := range s.query {
		s.query[q].register(int32(q), 0, seed, g.QueryNeighbors(int32(q)), nil)
	}
	all := make([]*pregel.Vertex, g.NumData()+g.NumQueries())
	for i := range all {
		all[i] = &pregel.Vertex{ID: pregel.VertexID(i)}
	}
	workers := [][]*pregel.Vertex{all[:len(all)/2], all[len(all)/2:]}
	encode := func() [][]byte {
		parts := make([][]byte, len(workers))
		for w, vs := range workers {
			parts[w] = s.AppendWorker(nil, vs)
		}
		return parts
	}
	good, master := encode(), s.AppendMaster(nil)
	requireUnchanged := func(label string) {
		t.Helper()
		if got := encode(); !slices.EqualFunc(got, good, bytes.Equal) {
			t.Fatalf("%s: a refused restore changed the vertex states", label)
		}
		if !bytes.Equal(s.AppendMaster(nil), master) {
			t.Fatalf("%s: a refused restore changed the schedule", label)
		}
	}
	q := int32(slices.IndexFunc(s.query, func(st queryState) bool { return len(st.memberBucket) >= 3 }))
	if q < 0 {
		t.Fatal("no query of degree 3 or more")
	}
	registry := s.query[q].memberBucket
	withNegative := slices.Clone(registry)
	withNegative[2] = -1
	for _, c := range []struct {
		name string
		reg  []int32
	}{{"one entry", registry[:1]}, {"a -1 entry", withNegative}} {
		s.query[q].memberBucket = c.reg
		bad := encode()
		s.query[q].memberBucket = registry
		err := s.Restore(workers, bad, master)
		if re := new(RegistryError); !errors.As(err, &re) || re.Query != q {
			t.Fatalf("%s: Restore returned %v, want a *RegistryError for query %d", c.name, err, q)
		}
		requireUnchanged(c.name)
	}

	s.data[0].sumCur++
	other := encode()
	s.data[0].sumCur--
	if err := s.Restore(workers, other, master[:len(master)-1]); err == nil {
		t.Fatal("a truncated schedule restored")
	}
	requireUnchanged("damaged schedule")
	if err := s.Restore(workers, other, master); err != nil {
		t.Fatal(err)
	}
	if s.data[0].sumCur--; !slices.EqualFunc(encode(), good, bytes.Equal) {
		t.Fatal("restored vertex states differ from the parts")
	}
}
