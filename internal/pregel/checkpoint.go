package pregel

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Checkpointer persists superstep snapshots for failure recovery. Snapshots
// are opaque byte blobs the engine encodes; a checkpointer
// only stores and retrieves them. Implementations must be safe for use by
// one engine at a time (the engine never calls them concurrently).
type Checkpointer interface {
	// Save persists the snapshot taken at a superstep boundary, replacing
	// any earlier snapshot for the same superstep.
	Save(superstep int, snapshot []byte) error
	// Latest returns the most recent saved snapshot, or ok=false when
	// nothing has been saved yet.
	Latest() (superstep int, snapshot []byte, ok bool, err error)
}

// MemoryCheckpointer keeps the newest snapshot in process memory: recovery
// reads only Latest, and a store without Before offers no fallback, so an
// older snapshot is memory nothing can read. It survives engine restarts
// within a process (useful for tests and the in-process backends) but not
// process death — use NewDiskCheckpointer for that.
type MemoryCheckpointer struct {
	mu    sync.Mutex
	step  int
	snap  []byte
	saved bool
}

// NewMemoryCheckpointer returns an empty in-memory checkpoint store.
func NewMemoryCheckpointer() *MemoryCheckpointer {
	return &MemoryCheckpointer{}
}

// Save stores a copy of the snapshot in place of the one held.
func (c *MemoryCheckpointer) Save(superstep int, snapshot []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.step, c.snap, c.saved = superstep, append([]byte(nil), snapshot...), true
	return nil
}

// Latest returns the snapshot saved last.
func (c *MemoryCheckpointer) Latest() (int, []byte, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.step, c.snap, c.saved, nil
}

// DiskCheckpointer persists snapshots as files in a directory, one file per
// superstep boundary, written atomically (temp file + rename) so a crash
// mid-write can never leave a truncated snapshot as the latest. Older
// snapshots beyond diskKeep are pruned after each save.
type DiskCheckpointer struct {
	dir string
}

// diskKeep is how many snapshots a DiskCheckpointer leaves on disk: the
// newest plus one fallback in case the newest write raced a crash.
const diskKeep = 2

// NewDiskCheckpointer stores snapshots under dir, creating it if needed.
func NewDiskCheckpointer(dir string) (*DiskCheckpointer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DiskCheckpointer{dir: dir}, nil
}

func (c *DiskCheckpointer) path(superstep int) string {
	return filepath.Join(c.dir, fmt.Sprintf("checkpoint-%09d.snap", superstep))
}

// Save writes the snapshot atomically and prunes old ones.
func (c *DiskCheckpointer) Save(superstep int, snapshot []byte) error {
	tmp := c.path(superstep) + ".tmp"
	if err := os.WriteFile(tmp, snapshot, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, c.path(superstep)); err != nil {
		os.Remove(tmp)
		return err
	}
	steps, err := c.steps()
	if err != nil {
		return nil // pruning is best-effort; the save itself succeeded
	}
	for len(steps) > diskKeep {
		os.Remove(c.path(steps[0]))
		steps = steps[1:]
	}
	return nil
}

// Latest re-scans the directory, so a fresh process (or a fresh engine over
// the same directory) resumes from whatever the previous one left behind.
func (c *DiskCheckpointer) Latest() (int, []byte, bool, error) {
	return c.Before(math.MaxInt)
}

// Before returns the most recent snapshot saved at a superstep below the
// given one, or ok=false when there is none. Recovery calls it when the
// snapshot it was handed does not decode: this is the read side of the
// fallback diskKeep retains.
func (c *DiskCheckpointer) Before(superstep int) (int, []byte, bool, error) {
	steps, err := c.steps()
	if err != nil {
		return 0, nil, false, err
	}
	i := sort.SearchInts(steps, superstep) // steps[:i] are the older ones
	if i == 0 {
		return 0, nil, false, nil
	}
	step := steps[i-1]
	data, err := os.ReadFile(c.path(step))
	if err != nil {
		return 0, nil, false, err
	}
	return step, data, true, nil
}

// steps lists the saved superstep numbers in ascending order.
func (c *DiskCheckpointer) steps() ([]int, error) {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return nil, err
	}
	var steps []int
	for _, ent := range entries {
		name := ent.Name()
		if !strings.HasPrefix(name, "checkpoint-") || !strings.HasSuffix(name, ".snap") {
			continue
		}
		s, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "checkpoint-"), ".snap"))
		if err != nil {
			continue
		}
		steps = append(steps, s)
	}
	sort.Ints(steps)
	return steps, nil
}

// ProgramState checkpoints a program's own state: each worker's, kept in the
// program, and the master's. A snapshot holds one part per worker beside one
// master blob; the engine frames and checksums them. A program with vertices
// keeps their state indexed by id, and a worker's are the ids HashWorker
// places on it.
type ProgramState interface {
	// AppendWorker appends the state of worker w to buf.
	AppendWorker(buf []byte, w int) []byte
	// AppendMaster appends the master's state to buf.
	AppendMaster(buf []byte) []byte
	// Restore replaces the program's state with a snapshot's: parts[w] is
	// what AppendWorker wrote for worker w, master what AppendMaster wrote.
	// All or nothing: on error the program is exactly as it was. Nothing
	// restored may alias the arguments.
	Restore(parts [][]byte, master []byte) error
}

// Snapshot format (versioned; all integers are minimal uvarints unless
// noted):
//
//	magic "SHPS" | version byte | superstep | workers | total vertices
//	per worker, in worker order:
//	  program part length | the part (Options.Program's AppendWorker)
//	  halted flags: one bit per vertex in the engine's canonical order
//	    (id-ascending), low bit first, ⌈n/8⌉ bytes, padding bits zero
//	master blob length | blob bytes (Options.Program's AppendMaster)
//	CRC-32 (IEEE, 4 bytes little-endian) of every byte before it
//
// A snapshot is taken only where no inbox holds a record (see Run), so it
// holds no messages and needs no codec; an engine with no vertices writes
// no halted flags. Encoding order is canonical, so equal states produce
// byte-identical snapshots. The checksum is what catches damage that still parses — a
// flipped bit inside a numeric state decodes to a different, perfectly
// valid state. The version changes whenever the layout or a program's
// payload does: version 5 moved vertex states out of the engine into
// per-worker program parts, version 6 cut distshp's parts to its data
// vertices' buckets, version 7 added the worker group to the pending
// inboxes, and version 8 dropped the inboxes.
const (
	snapshotMagic   = "SHPS"
	snapshotVersion = 8
	snapshotSumSize = 4
)

// checkpoint snapshots the engine at a quiescent superstep boundary and
// hands it to the checkpointer, charging the encoded size to
// Stats.CheckpointBytes.
func (e *EngineOf[M, A]) checkpoint(superstep int) error {
	snap := e.encodeSnapshot(superstep)
	if err := e.opts.Checkpointer.Save(superstep, snap); err != nil {
		return fmt.Errorf("pregel: checkpoint at superstep %d: %w", superstep, err)
	}
	e.stats.CheckpointBytes += int64(len(snap))
	e.snapLen = len(snap)
	return nil
}

// prefixLen inserts the length of buf[at:] at at, as a uvarint.
func prefixLen(buf []byte, at int) []byte {
	var n [binary.MaxVarintLen64]byte
	return slices.Insert(buf, at, n[:binary.PutUvarint(n[:], uint64(len(buf)-at))]...)
}

// encodeSnapshot serializes the barrier state at a quiescent superstep
// boundary: everything the next superstep's compute can observe. The buffer
// starts at the previous snapshot's size, which the next one rarely outgrows.
func (e *EngineOf[M, A]) encodeSnapshot(superstep int) []byte {
	buf := append(make([]byte, 0, e.snapLen), snapshotMagic...)
	buf = append(buf, snapshotVersion)
	buf = binary.AppendUvarint(buf, uint64(superstep))
	buf = binary.AppendUvarint(buf, uint64(len(e.workers)))
	buf = binary.AppendUvarint(buf, uint64(len(e.place)))
	for _, w := range e.workers {
		at := len(buf)
		buf = prefixLen(e.opts.Program.AppendWorker(buf, w.id), at)
		at = len(buf)
		buf = append(buf, make([]byte, (len(w.vertices)+7)/8)...)
		for l, v := range w.vertices {
			if v.halted {
				buf[at+l/8] |= 1 << (l % 8)
			}
		}
	}
	at := len(buf)
	buf = prefixLen(e.opts.Program.AppendMaster(buf), at)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// snapshotState is a fully decoded snapshot, held apart from the engine until
// every byte has parsed: a damaged file must fail before anything is rewound,
// so recovery can still fall back to an older one.
type snapshotState struct {
	parts  [][]byte // per worker, the program's part
	halted [][]byte // per worker, the halted bits
	master []byte
}

// decodeSnapshot parses a snapshot taken by encodeSnapshot and checks it
// against its checksum and the engine's layout (worker and vertex counts).
// Every uvarint must be in the bytes encodeSnapshot writes for it, so a
// snapshot that decodes re-encodes to itself. It only reads the engine.
func (e *EngineOf[M, A]) decodeSnapshot(data []byte) (*snapshotState, error) {
	if len(data) < len(snapshotMagic)+1 || string(data[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("bad snapshot magic")
	}
	if v := data[len(snapshotMagic)]; v != snapshotVersion {
		return nil, fmt.Errorf("unsupported snapshot version %d", v)
	}
	if len(data) < len(snapshotMagic)+1+snapshotSumSize {
		return nil, fmt.Errorf("truncated snapshot")
	}
	body := data[:len(data)-snapshotSumSize]
	if want, got := binary.LittleEndian.Uint32(data[len(body):]), crc32.ChecksumIEEE(body); want != got {
		return nil, fmt.Errorf("snapshot checksum %08x, content sums to %08x", want, got)
	}
	data = body[len(snapshotMagic)+1:]
	readUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, fmt.Errorf("truncated snapshot")
		}
		if n != uvarintLen(v) {
			return 0, fmt.Errorf("snapshot field %d is not minimally encoded", v)
		}
		data = data[n:]
		return v, nil
	}
	readBytes := func(n uint64) ([]byte, error) {
		if uint64(len(data)) < n {
			return nil, fmt.Errorf("truncated snapshot")
		}
		b := data[:n:n]
		data = data[n:]
		return b, nil
	}
	if _, err := readUvarint(); err != nil { // superstep: carried by the checkpointer
		return nil, err
	}
	workers, err := readUvarint()
	if err != nil {
		return nil, err
	}
	if workers != uint64(len(e.workers)) {
		return nil, fmt.Errorf("snapshot for %d workers, engine has %d", workers, len(e.workers))
	}
	total, err := readUvarint()
	if err != nil {
		return nil, err
	}
	if total != uint64(len(e.place)) {
		return nil, fmt.Errorf("snapshot has %d vertices, engine has %d", total, len(e.place))
	}
	s := &snapshotState{
		parts:  make([][]byte, len(e.workers)),
		halted: make([][]byte, len(e.workers)),
	}
	for _, w := range e.workers {
		n, err := readUvarint()
		if err != nil {
			return nil, err
		}
		if s.parts[w.id], err = readBytes(n); err != nil {
			return nil, err
		}
		if s.halted[w.id], err = readBytes(uint64(len(w.vertices)+7) / 8); err != nil {
			return nil, err
		}
		if pad := len(w.vertices) % 8; pad != 0 && s.halted[w.id][len(w.vertices)/8]>>pad != 0 {
			return nil, fmt.Errorf("worker %d: halted flags set past its %d vertices", w.id, len(w.vertices))
		}
	}
	n, err := readUvarint()
	if err == nil {
		s.master, err = readBytes(n)
	}
	if err != nil {
		return nil, err
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%d trailing bytes in snapshot", len(data))
	}
	return s, nil
}

// restoreSnapshot rewinds the engine to a snapshot taken by encodeSnapshot:
// halted flags, and (via Options.Program) the program's state. Inboxes,
// outboxes and the aggregate's parts are cleared — the snapshot's barrier
// had no record pending, and the rest was produced after it. The snapshot is decoded in full, and
// the program has accepted its parts, before the first engine field
// changes: on error the engine and the program are exactly as they were.
func (e *EngineOf[M, A]) restoreSnapshot(data []byte) error {
	s, err := e.decodeSnapshot(data)
	if err != nil {
		return err
	}
	if err := e.opts.Program.Restore(s.parts, s.master); err != nil {
		return fmt.Errorf("program restore: %w", err)
	}
	for _, w := range e.workers {
		for l, v := range w.vertices {
			v.halted = s.halted[w.id][l/8]>>(l%8)&1 != 0
		}
		w.in.reset()
		e.clearOutboxes(w)
	}
	e.clearAggregates()
	return nil
}
