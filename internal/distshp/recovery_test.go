package distshp

import (
	"fmt"
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
	for _, rebuild := range []int{0, 1} {
		opts := Options{K: 4, Seed: seed, Workers: 3, ItersPerLevel: 2, RebuildEvery: rebuild}
		base, err := Partition(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Iteration j runs supersteps 4j..4j+3. The kills must reach a level
		// start, and an iteration whose superstep 1 rebroadcasts because the
		// policy swept or rebuilt after the one before it.
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
			t.Fatalf("RebuildEvery %d: kills up to superstep %d reach a level start %v, a rebroadcast %v; want both",
				rebuild, lastKill, levelStart, rebroadcast)
		}
		for kill := 1; kill <= lastKill; kill++ {
			label := fmt.Sprintf("RebuildEvery %d, kill at %d", rebuild, kill)
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
