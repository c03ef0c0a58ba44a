package distshp

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"shp/internal/core"
	"shp/internal/pregel"
)

// TestDistRecoveryMatchesUndisturbed is the headline fault-tolerance
// invariant: kill a worker mid-protocol, recover from the last checkpoint,
// and the finished run must be byte-identical — assignments, levels,
// iteration counts, and the full History stream — to the undisturbed run.
// Exercised across seeds, both transports, and checkpoint cadences in
// iterations (cadence 1 rolls back to the start of the killed iteration,
// superstep 8; cadence 5 replays from the run's start, across a partial
// iteration).
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
// with a checkpoint at every iteration, so recovery replays an iteration
// from each of its phases — across a level start, where the checkpoint
// holds the previous level's buckets, and a rebroadcast iteration. Every
// recovered run must match the undisturbed one, on the default schedule and
// on a rebroadcast every iteration.
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
	// A checkpoint every iteration: the kill at superstep 13 restores the
	// one taken at superstep 12.
	faulty, err := Partition(g, Options{
		K: 8, Seed: seed, Workers: 4,
		Transport: pregel.FaultyTransport(pregel.MemoryTransport(), pregel.FaultPlan{
			KillWorker: 1, KillStep: 13,
		}),
		Checkpointer:    cp,
		CheckpointEvery: 1,
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

// TestRestoreRejectsDamagedSnapshots hands the checkpoint hook damaged
// checkpoints: a short part, a trailing byte and a damaged schedule
// (TestCheckpointCodecRejectsOutOfRangeBuckets covers buckets outside their
// level's range). Each must be refused and leave the
// run's vertex states and schedule as they were. The good checkpoint then
// restores the level-start replay state with the schedule's level,
// iteration and history.
func TestRestoreRejectsDamagedSnapshots(t *testing.T) {
	s := fuzzRun(t)
	parts, master := checkpointOf(s)
	before := restorableOf(s)
	withPart := func(w int, part []byte) [][]byte {
		c := slices.Clone(parts)
		c[w] = part
		return c
	}
	for _, c := range []struct {
		name   string
		parts  [][]byte
		master []byte
	}{
		{"a short part", withPart(0, parts[0][:len(parts[0])-1]), master},
		{"a trailing byte", withPart(1, append(slices.Clone(parts[1]), 0)), master},
		{"a truncated schedule", parts, master[:len(master)-1]},
	} {
		if err := s.Restore(c.parts, c.master); err == nil {
			t.Fatalf("%s: restored", c.name)
		}
		if !reflect.DeepEqual(restorableOf(s), before) {
			t.Fatalf("%s: a refused restore changed the run state", c.name)
		}
	}
	if err := s.Restore(parts, master); err != nil {
		t.Fatal(err)
	}
	requireReplayState(t, s)
	for d, st := range s.data {
		if st.bucket != before.data[d].bucket {
			t.Fatalf("data vertex %d restored into bucket %d, checkpointed in %d", d, st.bucket, before.data[d].bucket)
		}
	}
	if s.sched.level != before.sched.level || s.sched.iter != before.sched.iter || !slices.Equal(s.sched.history, before.sched.history) {
		t.Fatal("the restored schedule differs from the checkpointed one")
	}
}

// recordingCheckpointer is a memory store that records the superstep of
// every save.
type recordingCheckpointer struct {
	*pregel.MemoryCheckpointer
	steps []int
}

func (c *recordingCheckpointer) Save(superstep int, snapshot []byte) error {
	c.steps = append(c.steps, superstep)
	return c.MemoryCheckpointer.Save(superstep, snapshot)
}

// TestCheckpointsLandOnIterationStarts pins the precondition the checkpoint
// format rests on: every snapshot is taken at an iteration's superstep 0,
// and nothing is pending there, because superstep 3 (the coin flips) sends
// no message.
func TestCheckpointsLandOnIterationStarts(t *testing.T) {
	const seed = 13
	g := randomBipartite(t, seed, 250, 500, 2000)
	for _, tc := range []struct {
		name      string
		transport func() pregel.Transport
	}{
		{"memory", pregel.MemoryTransport},
		{"tcp", pregel.TCPTransport},
	} {
		for _, every := range []int{0, 1, 3} {
			cp := &recordingCheckpointer{MemoryCheckpointer: pregel.NewMemoryCheckpointer()}
			res, err := Partition(g, Options{K: 8, Seed: seed, Workers: 3, Transport: tc.transport(),
				Checkpointer: cp, CheckpointEvery: every})
			if err != nil {
				t.Fatal(err)
			}
			supersteps := 4 * Options{CheckpointEvery: every}.withDefaults().CheckpointEvery
			if len(cp.steps) < 2 {
				t.Fatalf("%s, every %d: saves at %v, want several", tc.name, every, cp.steps)
			}
			for _, step := range cp.steps {
				if step%supersteps != 0 {
					t.Fatalf("%s, every %d: a save at superstep %d, not every %d supersteps from 0",
						tc.name, every, step, supersteps)
				}
			}
			for s := 3; s < len(res.Stats.PerSuperstep); s += 4 {
				if n := res.Stats.PerSuperstep[s].MessagesSent; n != 0 {
					t.Fatalf("%s: superstep %d sent %d messages", tc.name, s, n)
				}
			}
		}
	}
}
