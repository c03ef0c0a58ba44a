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
	"slices"
	"strings"
	"testing"
	"time"
)

// ringRun is a deterministic, never-halting computation that exercises every
// plane a checkpoint must cover: float64 vertex states that evolve each
// superstep, kept by the program in a slab indexed by vertex id, and a
// float64 aggregate the master folds into state of its own. It checkpoints
// both through its ProgramState methods. Ring messages are sent on even
// supersteps only, so they are pending at every odd barrier and every even
// one is quiescent: a snapshot due at an odd barrier waits for the next.
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
			if ctx.Superstep()%2 == 0 {
				ctx.Send(VertexID((int(v.ID)+1)%n), val*0.5)
			}
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

// busy makes the ring send on odd supersteps too, so that no barrier after
// superstep 0 is quiescent and the only snapshot is superstep 0's.
func (r *ringRun) busy() *ringRun {
	compute := r.opts.Compute
	r.opts.Compute = func(ctx *ContextOf[Message, float64], v *Vertex, msgs []Message) {
		compute(ctx, v, msgs)
		if ctx.Superstep()%2 == 1 {
			ctx.Send(VertexID((int(v.ID)+1)%len(r.vals)), r.vals[v.ID]*0.5)
		}
	}
	return r
}

// hostedBy returns the ids of n vertices that HashWorker places on worker w
// of workers, ascending: the vertices whose state a program checkpoints in
// w's part.
func hostedBy(n, workers, w int) []VertexID {
	var ids []VertexID
	for id := VertexID(0); id < VertexID(n); id++ {
		if HashWorker(id, workers) == w {
			ids = append(ids, id)
		}
	}
	return ids
}

// AppendWorker encodes each of worker w's vertices' values as 8
// little-endian bytes.
func (r *ringRun) AppendWorker(buf []byte, w int) []byte {
	for _, id := range hostedBy(len(r.vals), r.opts.Workers, w) {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.vals[id]))
	}
	return buf
}

// AppendMaster encodes the master's sum as 8 little-endian bytes.
func (r *ringRun) AppendMaster(buf []byte) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.masterSum))
}

// Restore checks every part's length and the blob's before it writes.
func (r *ringRun) Restore(parts [][]byte, master []byte) error {
	for w, part := range parts {
		if n := len(hostedBy(len(r.vals), r.opts.Workers, w)); len(part) != 8*n {
			return fmt.Errorf("worker %d: %d bytes for %d vertices", w, len(part), n)
		}
	}
	if len(master) != 8 {
		return fmt.Errorf("bad master blob length %d", len(master))
	}
	for w, part := range parts {
		for i, id := range hostedBy(len(r.vals), r.opts.Workers, w) {
			r.vals[id] = math.Float64frombits(binary.LittleEndian.Uint64(part[8*i:]))
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
// checkpoint due at every superstep, a worker kill injected at each possible
// exchange — those with ring records in flight included — recovers and
// finishes bit-for-bit identical to the undisturbed run — states, master
// closure, and the full per-superstep stats stream.
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

// TestRecoveryAcrossCadences kills an exchange that carries ring records
// under several checkpoint cadences: rolling back 0, a few, or all
// supersteps, to a snapshot taken when due (every=1 and 3: 8 and 6) or
// deferred to a quiescent barrier (every=5: due at 5, taken at 6), must all
// converge to the same bits.
func TestRecoveryAcrossCadences(t *testing.T) {
	const n, workers, steps, kill = 24, 3, 12, 8
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
// transport, killing an exchange that carries ring records: recovery must
// tear the mesh down and rebuild it.
func TestRecoveryOverTCP(t *testing.T) {
	const n, workers, steps = 24, 3, 10
	base := newRingRun(n, workers, steps, nil, nil, 0)
	baseStats := base.run(t)

	r := newRingRun(n, workers, steps, FaultyTransport(TCPTransport(), FaultPlan{
		KillWorker: 1, KillStep: 8,
	}), NewMemoryCheckpointer(), 3)
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
// snapshots on disk instead of in memory, killing an exchange that carries
// ring records.
func TestDiskCheckpointerDrivesRecovery(t *testing.T) {
	const n, workers, steps = 24, 3, 12
	base := newRingRun(n, workers, steps, nil, nil, 0)
	base.run(t)

	cp, err := NewDiskCheckpointer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := newRingRun(n, workers, steps, FaultyTransport(MemoryTransport(), FaultPlan{
		KillWorker: 0, KillStep: 8,
	}), cp, 3)
	stats := r.run(t)
	requireSameStates(t, "disk", base, r)
	if stats.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", stats.Recoveries)
	}
}

// TestRecoveryFallsBackPastDamagedSnapshot damages the newest snapshot file
// between its write and an injected worker kill: recovery must notice that it
// does not decode, restore the older one the store keeps for this (the
// snapshot due at 3, deferred to 4), and finish bit-for-bit identical to an
// undisturbed run. With both kept snapshots
// damaged the run fails with the original *WorkerFailure still in the chain.
// Three kinds of damage: a truncation, a flipped bit in the version byte, and
// a flipped mantissa bit inside the first vertex's float64 state in the ring
// program's part — which still parses, to a different valid state, and is
// caught by the checksum alone.
func TestRecoveryFallsBackPastDamagedSnapshot(t *testing.T) {
	const n, workers, steps, every, kill = 24, 3, 12, 3, 8 // snapshots at 0, 4, 6; kill at 8
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
	// superstep 7 — after checkpoint 6 was written, before superstep 8's
	// exchange, which carries ring records, is killed.
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
		_, eng := damagedRun(t, truncate, 4, 6)
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
	const n, workers, steps, kill = 24, 3, 12, 6
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
	if !bytes.Equal(eng.encodeSnapshot(kill), plain.encodeSnapshot(kill)) {
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
// must re-encode to exactly the bytes it was restored from.
func FuzzSnapshotRestore(f *testing.F) {
	const n, workers, steps = 24, 3, 12
	cp := &everySave{snaps: map[int][]byte{}}
	newRingRun(n, workers, steps, nil, cp, 1).run(f)
	var bodies [][]byte
	for step := 0; step < steps; step++ {
		if snap, ok := cp.snaps[step]; ok {
			bodies = append(bodies, snap[:len(snap)-snapshotSumSize])
			f.Add(bodies[len(bodies)-1])
		}
	}
	last := bodies[len(bodies)-1]
	f.Add(last[:len(last)/2])
	f.Add(append(bytes.Clone(last), 0))
	stateAt := len(snapshotMagic) + 1 + 3 // worker 0's program part length
	f.Add(append(bytes.Clone(last[:stateAt]), 255, 255, 255, 255, 255, 255, 255, 255, 255, 1))
	// A snapshot of a run with the worker plane.
	grouped := &everySave{snaps: map[int][]byte{}}
	withWorkerGroup(newRingRun(n, workers, steps, nil, grouped, 1), workers).run(f)
	f.Add(grouped.snaps[4][:len(grouped.snaps[4])-snapshotSumSize])

	r := newRingRun(n, workers, steps, nil, NewMemoryCheckpointer(), 1)
	eng, err := NewEngineOf(r.opts, r.vertices)
	if err != nil {
		f.Fatal(err)
	}
	// A halted flag set past worker 0's last vertex.
	padded := bytes.Clone(bodies[2])
	padded[haltedAt(eng, 0, 4)] |= 0x80
	f.Add(padded)
	// Snapshot 4 with its superstep in two bytes, an overlong uvarint.
	overlong := append(bytes.Clone(bodies[2][:len(snapshotMagic)+1]), 0x84, 0x00)
	f.Add(append(overlong, bodies[2][len(snapshotMagic)+2:]...))

	start := append(bytes.Clone(bodies[2]), 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(start[len(bodies[2]):], crc32.ChecksumIEEE(bodies[2]))
	f.Fuzz(func(t *testing.T, body []byte) {
		if err := eng.restoreSnapshot(start); err != nil {
			t.Fatal(err)
		}
		before := eng.encodeSnapshot(0)
		data := binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.ChecksumIEEE(body))
		if err := eng.restoreSnapshot(data); err != nil {
			if !bytes.Equal(eng.encodeSnapshot(0), before) {
				t.Fatalf("rejected snapshot (%v) changed the engine or the program", err)
			}
			return
		}
		// The superstep is the checkpointer's to carry, so the engine does
		// not keep it; it re-encodes the one the snapshot holds.
		step, _ := binary.Uvarint(body[len(snapshotMagic)+1:])
		if re := eng.encodeSnapshot(int(step)); !bytes.Equal(re, data) {
			t.Fatalf("accepted snapshot re-encodes to other bytes:\n%x\n%x", data, re)
		}
	})
}

// haltedAt is the offset of worker w's first halted-flag byte in a snapshot
// of a ring run's engine taken at superstep step.
func haltedAt(eng *EngineOf[Message, float64], w, step int) int {
	at := len(snapshotMagic) + 1 + uvarintLen(uint64(step)) + uvarintLen(uint64(len(eng.workers))) + uvarintLen(uint64(len(eng.place)))
	for _, wk := range eng.workers[:w+1] {
		part := 8 * len(wk.vertices)
		at += uvarintLen(uint64(part)) + part
		if wk.id < w {
			at += (len(wk.vertices) + 7) / 8
		}
	}
	return at
}

// TestSnapshotRefusesHaltedPadding: the halted flags' padding bits, those
// at or past a worker's vertex count in its last byte, must be zero. A
// snapshot with one set is refused although its checksum holds, and leaves
// the engine and the program as they were; a set flag of a real vertex
// restores and re-encodes to the same bytes.
func TestSnapshotRefusesHaltedPadding(t *testing.T) {
	const n, workers, steps, at = 10, 3, 4, 2
	cp := &everySave{snaps: map[int][]byte{}}
	newRingRun(n, workers, steps, nil, cp, 1).run(t)
	r := newRingRun(n, workers, steps, nil, NewMemoryCheckpointer(), 1)
	eng, err := NewEngineOf(r.opts, r.vertices)
	if err != nil {
		t.Fatal(err)
	}
	n0 := len(eng.workers[0].vertices)
	if n0 == 0 || n0 >= 8 {
		t.Fatalf("worker 0 holds %d vertices; the test needs 1..7", n0)
	}
	snap := cp.snaps[at]
	body := snap[:len(snap)-snapshotSumSize]
	flags := haltedAt(eng, 0, at)
	set := func(bit int) []byte {
		b := bytes.Clone(body)
		b[flags] |= 1 << bit
		return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	}
	if err := eng.restoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	before := eng.encodeSnapshot(at)
	if err := eng.restoreSnapshot(set(7)); err == nil {
		t.Fatal("a snapshot with a halted flag past worker 0's vertices restored")
	}
	if !bytes.Equal(eng.encodeSnapshot(at), before) {
		t.Fatal("a refused snapshot changed the engine or the program")
	}
	flagged := set(n0 - 1)
	if err := eng.restoreSnapshot(flagged); err != nil {
		t.Fatal(err)
	}
	if !eng.workers[0].vertices[n0-1].halted || !bytes.Equal(eng.encodeSnapshot(at), flagged) {
		t.Fatal("a real halted flag did not restore to the same bytes")
	}
}

// watchedCheckpointer records the supersteps it is handed snapshots at, and
// whether any worker's inbox held a record when one was taken.
type watchedCheckpointer struct {
	MemoryCheckpointer
	eng     *EngineOf[Message, float64]
	steps   []int
	pending []int // records pending at each save
}

func (c *watchedCheckpointer) Save(superstep int, snapshot []byte) error {
	c.steps = append(c.steps, superstep)
	c.pending = append(c.pending, c.eng.pendingRecords())
	return c.MemoryCheckpointer.Save(superstep, snapshot)
}

// pendingRecords counts the records in every worker's inbox.
func (e *EngineOf[M, A]) pendingRecords() int {
	n := 0
	for _, w := range e.workers {
		n += len(w.in.msg)
	}
	return n
}

// TestSnapshotsWaitForQuiescentBarriers checks where snapshots land: a
// snapshot due at a barrier with records pending is taken at the first
// quiescent barrier after it, so none is saved with a record pending, and a
// program that never quiesces is checkpointed at superstep 0 only. A kill
// after a deferred snapshot, and a kill in the program that never quiesces,
// which replays from superstep 0, both finish byte-identical to an
// undisturbed run, and the replay takes the same snapshots.
func TestSnapshotsWaitForQuiescentBarriers(t *testing.T) {
	const n, workers, steps = 24, 3, 12
	for _, c := range []struct {
		name  string
		every int
		kill  int // 0: none
		busy  bool
		want  []int
	}{
		{"every superstep", 1, 0, false, []int{0, 2, 4, 6, 8, 10}},
		{"every third", 3, 0, false, []int{0, 4, 6, 10}},
		{"every third, kill after a deferred snapshot", 3, 5, false, []int{0, 4, 6, 10}},
		{"every third, kill while a snapshot is deferred", 3, 9, false, []int{0, 4, 6, 10}},
		{"every fifth", 5, 0, false, []int{0, 6, 10}},
		{"never quiescent", 1, 0, true, []int{0}},
		{"never quiescent, kill", 1, 7, true, []int{0}},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := newRingRun(n, workers, steps, nil, nil, 0)
			var transport Transport
			if c.kill > 0 {
				transport = FaultyTransport(MemoryTransport(), FaultPlan{KillWorker: 1, KillStep: c.kill})
			}
			cp := &watchedCheckpointer{}
			r := newRingRun(n, workers, steps, transport, cp, c.every)
			if c.busy {
				base.busy()
				r.busy()
			}
			baseStats := base.run(t)
			starts := 0 // how often superstep 0 ran
			inner := r.opts.Master
			r.opts.Master = func(step int, parts []*float64) bool {
				if step == 0 {
					starts++
				}
				return inner(step, parts)
			}
			eng, err := NewEngineOf(r.opts, r.vertices)
			if err != nil {
				t.Fatal(err)
			}
			cp.eng = eng
			stats, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(cp.steps, c.want) {
				t.Fatalf("snapshots at supersteps %v, want %v", cp.steps, c.want)
			}
			for i, p := range cp.pending {
				if p != 0 {
					t.Fatalf("the snapshot at superstep %d was taken with %d records pending", cp.steps[i], p)
				}
			}
			requireSameRun(t, c.name, base, r, baseStats, stats)
			if wantRec := min(c.kill, 1); stats.Recoveries != wantRec {
				t.Fatalf("Recoveries = %d, want %d", stats.Recoveries, wantRec)
			}
			if c.busy && c.kill > 0 && starts != 2 {
				t.Fatalf("superstep 0 ran %d times, want 2: the replay starts there", starts)
			}
		})
	}
}
