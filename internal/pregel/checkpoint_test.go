package pregel

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// ringRun is a deterministic, never-halting computation that exercises every
// plane a checkpoint must cover: float64 vertex states that evolve each
// superstep, kept by the program in a slab indexed by vertex id, ring
// messages pending at every barrier, and a float64 aggregate the master
// folds into state of its own. It checkpoints both through its
// ProgramState methods.
type ringRun struct {
	masterSum float64
	vals      []float64 // by vertex id
	opts      OptionsOf[Message, float64]
	vertices  []*Vertex
}

func newRingRun(n, workers, steps int, transport Transport, cp Checkpointer, every int) *ringRun {
	r := &ringRun{vals: make([]float64, n), vertices: make([]*Vertex, n)}
	for i := range r.vertices {
		r.vertices[i] = &Vertex{ID: VertexID(i)}
		r.vals[i] = float64(i + 1)
	}
	r.opts = OptionsOf[Message, float64]{
		Workers:         workers,
		MaxSupersteps:   steps,
		Transport:       transport,
		Codecs:          floatRegistry(),
		Checkpointer:    cp,
		CheckpointEvery: every,
		Program:         r,
		Compute: func(ctx *ContextOf[Message, float64], v *Vertex, msgs []Message) {
			val := r.vals[v.ID]
			for _, m := range msgs {
				val += m.(float64)
			}
			val *= 0.75 // keep magnitudes bounded
			r.vals[v.ID] = val
			*ctx.Aggregate() += val
			ctx.Send(VertexID((int(v.ID)+1)%n), val*0.5)
		},
		Master: func(step int, parts []*float64) bool {
			total := 0.0
			for _, p := range parts {
				total += *p
			}
			r.masterSum += total * float64(step+1)
			return false
		},
	}
	return r
}

// AppendWorker encodes each vertex's value as 8 little-endian bytes.
func (r *ringRun) AppendWorker(buf []byte, vertices []*Vertex) []byte {
	for _, v := range vertices {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.vals[v.ID]))
	}
	return buf
}

// AppendMaster encodes the master's sum as 8 little-endian bytes.
func (r *ringRun) AppendMaster(buf []byte) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.masterSum))
}

// Restore checks every part's length and the blob's before it writes.
func (r *ringRun) Restore(workers [][]*Vertex, parts [][]byte, master []byte) error {
	for w, vs := range workers {
		if len(parts[w]) != 8*len(vs) {
			return fmt.Errorf("worker %d: %d bytes for %d vertices", w, len(parts[w]), len(vs))
		}
	}
	if len(master) != 8 {
		return fmt.Errorf("bad master blob length %d", len(master))
	}
	for w, vs := range workers {
		for i, v := range vs {
			r.vals[v.ID] = math.Float64frombits(binary.LittleEndian.Uint64(parts[w][8*i:]))
		}
	}
	r.masterSum = math.Float64frombits(binary.LittleEndian.Uint64(master))
	return nil
}

// run executes the computation, failing the test on error.
func (r *ringRun) run(t testing.TB) *Stats {
	t.Helper()
	eng, err := NewEngineOf(r.opts, r.vertices)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// requireSameStates asserts bit-identical vertex values and master sums.
func requireSameStates(t *testing.T, label string, a, b *ringRun) {
	t.Helper()
	for i := range a.vals {
		if math.Float64bits(a.vals[i]) != math.Float64bits(b.vals[i]) {
			t.Fatalf("%s: state[%d] differs: %v vs %v", label, i, a.vals[i], b.vals[i])
		}
	}
	if math.Float64bits(a.masterSum) != math.Float64bits(b.masterSum) {
		t.Fatalf("%s: master state differs: %v vs %v", label, a.masterSum, b.masterSum)
	}
}

// requireSameRun asserts bit-identical final states, master closures, and
// per-superstep statistics between two finished ringRuns.
func requireSameRun(t *testing.T, label string, a, b *ringRun, sa, sb *Stats) {
	t.Helper()
	requireSameStates(t, label, a, b)
	if len(sa.PerSuperstep) != len(sb.PerSuperstep) {
		t.Fatalf("%s: %d vs %d supersteps", label, len(sa.PerSuperstep), len(sb.PerSuperstep))
	}
	for i := range sa.PerSuperstep {
		if sa.PerSuperstep[i] != sb.PerSuperstep[i] {
			t.Fatalf("%s: superstep %d stats differ:\n%+v\n%+v", label, i, sa.PerSuperstep[i], sb.PerSuperstep[i])
		}
	}
}

// TestRecoveryAtEverySuperstep is the engine-level property test: with a
// checkpoint at every superstep, a worker kill injected at each possible
// exchange recovers and finishes bit-for-bit identical to the undisturbed
// run — states, master closure, and the full per-superstep stats stream.
func TestRecoveryAtEverySuperstep(t *testing.T) {
	const n, workers, steps = 24, 3, 12
	base := newRingRun(n, workers, steps, nil, nil, 0)
	baseStats := base.run(t)

	for kill := 1; kill < steps; kill++ {
		r := newRingRun(n, workers, steps, FaultyTransport(MemoryTransport(), FaultPlan{
			KillWorker: 1, KillStep: kill,
		}), NewMemoryCheckpointer(), 1)
		stats := r.run(t)
		requireSameRun(t, fmt.Sprintf("kill@%d", kill), base, r, baseStats, stats)
		if stats.Recoveries != 1 {
			t.Fatalf("kill@%d: Recoveries = %d, want 1", kill, stats.Recoveries)
		}
		if stats.CheckpointBytes <= 0 {
			t.Fatalf("kill@%d: CheckpointBytes = %d, want > 0", kill, stats.CheckpointBytes)
		}
	}
}

// TestRecoveryAcrossCadences kills at a fixed superstep under several
// checkpoint cadences: rolling back 1, several, or all supersteps must all
// converge to the same bits.
func TestRecoveryAcrossCadences(t *testing.T) {
	const n, workers, steps, kill = 24, 3, 12, 9
	base := newRingRun(n, workers, steps, nil, nil, 0)
	baseStats := base.run(t)

	for _, every := range []int{1, 3, 5, 64} {
		r := newRingRun(n, workers, steps, FaultyTransport(MemoryTransport(), FaultPlan{
			KillWorker: 2, KillStep: kill,
		}), NewMemoryCheckpointer(), every)
		stats := r.run(t)
		requireSameRun(t, fmt.Sprintf("every=%d", every), base, r, baseStats, stats)
		if stats.Recoveries != 1 {
			t.Fatalf("every=%d: Recoveries = %d, want 1", every, stats.Recoveries)
		}
	}
}

// TestTransientDropsRetryInPlace injects side-effect-free frame drops: the
// engine must absorb them with in-place retries — no recovery, no
// checkpointer needed — and still produce the undisturbed bits.
func TestTransientDropsRetryInPlace(t *testing.T) {
	const n, workers, steps = 24, 3, 12
	base := newRingRun(n, workers, steps, nil, nil, 0)
	baseStats := base.run(t)

	r := newRingRun(n, workers, steps, FaultyTransport(MemoryTransport(), FaultPlan{
		DropEvery: 3,
	}), nil, 0)
	stats := r.run(t)
	requireSameRun(t, "drops", base, r, baseStats, stats)
	if stats.RetriedFrames == 0 {
		t.Fatal("RetriedFrames = 0, want > 0")
	}
	if stats.Recoveries != 0 {
		t.Fatalf("Recoveries = %d, want 0 (drops are transient)", stats.Recoveries)
	}
}

// TestWorkerFailureWithoutCheckpointer: no checkpointer means a kill is
// fatal, surfaced as the typed *WorkerFailure.
func TestWorkerFailureWithoutCheckpointer(t *testing.T) {
	r := newRingRun(24, 3, 12, FaultyTransport(MemoryTransport(), FaultPlan{
		KillWorker: 1, KillStep: 4,
	}), nil, 0)
	eng, err := NewEngineOf(r.opts, r.vertices)
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Run()
	var wf *WorkerFailure
	if !errors.As(err, &wf) {
		t.Fatalf("Run returned %v, want a *WorkerFailure", err)
	}
	if wf.Worker != 1 || wf.Superstep != 4 {
		t.Fatalf("WorkerFailure{Worker: %d, Superstep: %d}, want {1, 4}", wf.Worker, wf.Superstep)
	}
}

// TestRecoveryOverTCP runs the kill/recover cycle on the real socket
// transport: recovery must tear the mesh down and rebuild it.
func TestRecoveryOverTCP(t *testing.T) {
	const n, workers, steps = 24, 3, 10
	base := newRingRun(n, workers, steps, nil, nil, 0)
	baseStats := base.run(t)

	r := newRingRun(n, workers, steps, FaultyTransport(TCPTransport(), FaultPlan{
		KillWorker: 1, KillStep: 5,
	}), NewMemoryCheckpointer(), 2)
	stats := r.run(t)
	// BytesSent differs between transports (frames vs codec sizes), so
	// compare states and master closure only.
	requireSameStates(t, "tcp", base, r)
	if len(baseStats.PerSuperstep) != len(stats.PerSuperstep) {
		t.Fatalf("%d vs %d supersteps", len(baseStats.PerSuperstep), len(stats.PerSuperstep))
	}
	if stats.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", stats.Recoveries)
	}
}

// TestPeerCloseMidRunSurfacesTypedError closes a live TCP connection behind
// the engine's back; the next exchange must fail with a *WorkerFailure
// instead of hanging the barrier. The whole run is guarded by a timeout.
func TestPeerCloseMidRunSurfacesTypedError(t *testing.T) {
	tr := TCPTransport().(*tcpTransport)
	r := newRingRun(24, 3, 12, tr, nil, 0)
	inner := r.opts.Master
	r.opts.Master = func(step int, parts []*float64) bool {
		if step == 1 {
			// Sever worker 1's inbound link from worker 0 between barriers:
			// from the engine's view, a peer died mid-run.
			tr.recv[1][0].Close()
		}
		return inner(step, parts)
	}
	eng, err := NewEngineOf(r.opts, r.vertices)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := eng.Run()
		done <- err
	}()
	select {
	case err := <-done:
		var wf *WorkerFailure
		if !errors.As(err, &wf) {
			t.Fatalf("Run returned %v, want a *WorkerFailure", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("engine hung after peer connection closed mid-run")
	}
}

// TestReadFrameTimeout wires a tcpTransport to a silent peer: with
// FrameTimeout set, readFrame must give up with a timeout error instead of
// blocking forever.
func TestReadFrameTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := <-accepted
	defer server.Close()

	tr := &tcpTransport{
		timeout: 50 * time.Millisecond,
		recv:    [][]net.Conn{{nil, client}, {nil, nil}},
	}
	start := time.Now()
	err = tr.readFrame(1, 0, 0, &frame{}) // worker 0 reading from silent worker 1
	if err == nil {
		t.Fatal("readFrame succeeded against a silent peer")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("readFrame error %v, want a timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v, deadline was 50ms", elapsed)
	}
}

// TestDiskCheckpointer covers the persistent store: atomic saves, re-scan by
// a fresh instance (process-restart shape), and pruning.
func TestDiskCheckpointer(t *testing.T) {
	dir := t.TempDir()
	cp, err := NewDiskCheckpointer(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := cp.Latest(); err != nil || ok {
		t.Fatalf("empty store: ok=%v err=%v, want none", ok, err)
	}
	for step := 0; step <= 8; step += 4 {
		if err := cp.Save(step, []byte(fmt.Sprintf("snap-%d", step))); err != nil {
			t.Fatal(err)
		}
	}
	// A fresh instance over the same directory sees the latest snapshot.
	cp2, err := NewDiskCheckpointer(dir)
	if err != nil {
		t.Fatal(err)
	}
	step, snap, ok, err := cp2.Latest()
	if err != nil || !ok {
		t.Fatalf("Latest: ok=%v err=%v", ok, err)
	}
	if step != 8 || string(snap) != "snap-8" {
		t.Fatalf("Latest = (%d, %q), want (8, snap-8)", step, snap)
	}
	// Pruning keeps the newest two snapshots.
	steps, err := cp2.steps()
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 2 || steps[0] != 4 || steps[1] != 8 {
		t.Fatalf("kept steps %v, want [4 8]", steps)
	}
}

// TestMemoryCheckpointerKeepsNewest: the in-memory store holds only the
// snapshot it was handed last — recovery reads nothing older from it — so a
// run spanning many checkpoint intervals holds one snapshot, not one per
// interval.
func TestMemoryCheckpointerKeepsNewest(t *testing.T) {
	const saves, size = 32, 1 << 20
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	cp := NewMemoryCheckpointer()
	before := heap()
	snap := make([]byte, size)
	for i := range saves {
		snap[0] = byte(i)
		if err := cp.Save(4*i, snap); err != nil {
			t.Fatal(err)
		}
	}
	snap = nil
	held := heap() - before
	step, got, ok, err := cp.Latest()
	if err != nil || !ok || step != 4*(saves-1) || len(got) != size || got[0] != saves-1 {
		t.Fatalf("Latest = (%d, %d bytes, %v, %v), want the last save, step %d", step, len(got), ok, err, 4*(saves-1))
	}
	if held > 8*size {
		t.Fatalf("%d saves of %d bytes hold %d bytes of heap; the store keeps snapshots nothing reads", saves, size, held)
	}
}

// TestDiskCheckpointerDrivesRecovery runs the full kill/recover cycle with
// snapshots on disk instead of in memory.
func TestDiskCheckpointerDrivesRecovery(t *testing.T) {
	const n, workers, steps = 24, 3, 12
	base := newRingRun(n, workers, steps, nil, nil, 0)
	base.run(t)

	cp, err := NewDiskCheckpointer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := newRingRun(n, workers, steps, FaultyTransport(MemoryTransport(), FaultPlan{
		KillWorker: 0, KillStep: 7,
	}), cp, 3)
	stats := r.run(t)
	requireSameStates(t, "disk", base, r)
	if stats.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", stats.Recoveries)
	}
}

// TestRecoveryFallsBackPastDamagedSnapshot damages the newest snapshot file
// between its write and an injected worker kill: recovery must notice that it
// does not decode, restore the older one the store keeps for this, and finish
// bit-for-bit identical to an undisturbed run. With both kept snapshots
// damaged the run fails with the original *WorkerFailure still in the chain.
// Three kinds of damage: a truncation, a flipped bit in the version byte, and
// a flipped mantissa bit inside the first vertex's float64 state in the ring
// program's part — which still parses, to a different valid state, and is
// caught by the checksum alone.
func TestRecoveryFallsBackPastDamagedSnapshot(t *testing.T) {
	const n, workers, steps, every, kill = 24, 3, 12, 3, 7 // snapshots at 0, 3, 6; kill at 7
	base := newRingRun(n, workers, steps, nil, nil, 0)
	baseStats := base.run(t)

	truncate := func(b []byte) []byte { return b[:len(b)/2] }
	bitFlip := func(b []byte) []byte { b[len(snapshotMagic)] ^= 0x10; return b }
	// Header: magic, version, then superstep, worker count and vertex count
	// (one-byte uvarints at these sizes); then worker 0's program part: its
	// length, one byte here, and the eight bytes of each vertex's state.
	stateAt := len(snapshotMagic) + 1 + 3 + 1
	payloadFlip := func(b []byte) []byte { b[stateAt] ^= 0x10; return b }
	damage := func(t *testing.T, cp *DiskCheckpointer, step int, how func([]byte) []byte) {
		t.Helper()
		data, err := os.ReadFile(cp.path(step))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cp.path(step), how(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// damagedRun damages the given snapshots from the master hook of
	// superstep 6 — after checkpoint 6 was written, before superstep 7's
	// exchange is killed.
	damagedRun := func(t *testing.T, how func([]byte) []byte, damaged ...int) (*ringRun, *EngineOf[Message, float64]) {
		t.Helper()
		cp, err := NewDiskCheckpointer(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		r := newRingRun(n, workers, steps, FaultyTransport(MemoryTransport(), FaultPlan{
			KillWorker: 1, KillStep: kill,
		}), cp, every)
		inner := r.opts.Master
		r.opts.Master = func(step int, parts []*float64) bool {
			if step == kill-1 {
				for _, s := range damaged {
					damage(t, cp, s, how)
				}
			}
			return inner(step, parts)
		}
		eng, err := NewEngineOf(r.opts, r.vertices)
		if err != nil {
			t.Fatal(err)
		}
		return r, eng
	}

	for _, c := range []struct {
		name string
		how  func([]byte) []byte
	}{{"truncated", truncate}, {"bit-flipped", bitFlip}, {"payload bit-flipped", payloadFlip}} {
		t.Run(c.name, func(t *testing.T) {
			r, eng := damagedRun(t, c.how, 6)
			stats, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			requireSameRun(t, c.name, base, r, baseStats, stats)
			if stats.Recoveries != 1 {
				t.Fatalf("Recoveries = %d, want 1", stats.Recoveries)
			}
		})
	}
	t.Run("both damaged", func(t *testing.T) {
		_, eng := damagedRun(t, truncate, 3, 6)
		_, err := eng.Run()
		var wf *WorkerFailure
		if !errors.As(err, &wf) || wf.Worker != 1 || wf.Superstep != kill {
			t.Fatalf("Run returned %v, want the *WorkerFailure of worker 1 at superstep %d", err, kill)
		}
	})
}

// reversioned stores every snapshot under the previous format version with
// its checksum recomputed, so the version check is the only thing that can
// refuse it.
type reversioned struct{ *MemoryCheckpointer }

func (c reversioned) Save(superstep int, snapshot []byte) error {
	body := bytes.Clone(snapshot[:len(snapshot)-snapshotSumSize])
	body[len(snapshotMagic)] = snapshotVersion - 1
	return c.MemoryCheckpointer.Save(superstep, binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body)))
}

// TestSnapshotVersionMismatchRefused: a snapshot of another format version
// is refused although its checksum holds. Recovery fails with the
// *WorkerFailure in the chain and leaves the engine as the failure found it:
// its barrier state encodes to the bytes, and its aggregate holds the parts,
// of a run that had no checkpointer to recover from.
func TestSnapshotVersionMismatchRefused(t *testing.T) {
	const n, workers, steps, kill = 24, 3, 12, 5
	killed := func(cp Checkpointer) (*EngineOf[Message, float64], error) {
		r := newRingRun(n, workers, steps, FaultyTransport(MemoryTransport(), FaultPlan{
			KillWorker: 1, KillStep: kill,
		}), cp, 1)
		eng, err := NewEngineOf(r.opts, r.vertices)
		if err != nil {
			t.Fatal(err)
		}
		_, err = eng.Run()
		return eng, err
	}
	plain, _ := killed(nil)
	eng, err := killed(reversioned{NewMemoryCheckpointer()})
	var wf *WorkerFailure
	if !errors.As(err, &wf) || wf.Worker != 1 || wf.Superstep != kill {
		t.Fatalf("Run returned %v, want the *WorkerFailure of worker 1 at superstep %d", err, kill)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("unsupported snapshot version %d", snapshotVersion-1)) {
		t.Fatalf("Run returned %v, want the version refusal", err)
	}
	got, err := eng.encodeSnapshot(kill)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.encodeSnapshot(kill)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("a refused snapshot changed the engine's barrier state")
	}
	for i := range eng.parts {
		if *eng.parts[i] != *plain.parts[i] {
			t.Fatalf("worker %d's part is %v, want %v", i, *eng.parts[i], *plain.parts[i])
		}
	}
}

// everySave is a checkpoint store that keeps every snapshot it is handed,
// for a seed corpus of all of a run's snapshots.
type everySave struct {
	MemoryCheckpointer
	snaps map[int][]byte
}

func (c *everySave) Save(superstep int, snapshot []byte) error {
	c.snaps[superstep] = bytes.Clone(snapshot)
	return c.MemoryCheckpointer.Save(superstep, snapshot)
}

// FuzzSnapshotRestore drives the engine's side of a restore: it mutates a
// real snapshot of a checkpointed ring run, re-checksums it so the damage
// reaches the parser, and restores it into an engine holding another. A
// rejected snapshot must leave the engine and the ring program exactly as
// they were — their snapshot encodes to the same bytes — and an accepted one
// must re-encode stably. One seed holds pending worker groups.
func FuzzSnapshotRestore(f *testing.F) {
	const n, workers, steps = 24, 3, 6
	cp := &everySave{snaps: map[int][]byte{}}
	newRingRun(n, workers, steps, nil, cp, 1).run(f)
	bodies := make([][]byte, steps)
	for step := range bodies {
		snap := cp.snaps[step]
		bodies[step] = snap[:len(snap)-snapshotSumSize]
		f.Add(bodies[step])
	}
	last := bodies[steps-1]
	f.Add(last[:len(last)/2])
	f.Add(append(bytes.Clone(last), 0))
	stateAt := len(snapshotMagic) + 1 + 3 // worker 0's program part length
	f.Add(append(bytes.Clone(last[:stateAt]), 255, 255, 255, 255, 255, 255, 255, 255, 255, 1))
	// A snapshot whose inboxes end in worker groups (SendWorker's records).
	grouped := &everySave{snaps: map[int][]byte{}}
	withWorkerGroup(newRingRun(n, workers, steps, nil, grouped, 1), workers).run(f)
	f.Add(grouped.snaps[2][:len(grouped.snaps[2])-snapshotSumSize])

	r := newRingRun(n, workers, steps, nil, NewMemoryCheckpointer(), 1)
	eng, err := NewEngineOf(r.opts, r.vertices)
	if err != nil {
		f.Fatal(err)
	}
	encode := func(t *testing.T) []byte {
		snap, err := eng.encodeSnapshot(0)
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	start := append(bytes.Clone(bodies[2]), 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(start[len(bodies[2]):], crc32.ChecksumIEEE(bodies[2]))
	f.Fuzz(func(t *testing.T, body []byte) {
		if err := eng.restoreSnapshot(start); err != nil {
			t.Fatal(err)
		}
		before := encode(t)
		data := binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.ChecksumIEEE(body))
		if err := eng.restoreSnapshot(data); err != nil {
			if !bytes.Equal(encode(t), before) {
				t.Fatalf("rejected snapshot (%v) changed the engine or the program", err)
			}
			return
		}
		re := encode(t)
		if err := eng.restoreSnapshot(re); err != nil {
			t.Fatalf("re-encoded snapshot refused: %v", err)
		}
		if again := encode(t); !bytes.Equal(again, re) {
			t.Fatalf("unstable encoding: %x vs %x", again, re)
		}
	})
}
