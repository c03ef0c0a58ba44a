package pregel

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Transport moves one superstep's traffic between workers at the barrier.
// It never sees the engine: a framed backend moves byte frames the engine
// encoded (frame), and the in-process backend moves nothing, leaving the
// engine to hand values over directly. The interface is closed over this
// package's implementations; select a backend with MemoryTransport or
// TCPTransport, and wrap one with FaultyTransport.
type Transport interface {
	// start opens endpoints for a run over the given number of workers and
	// reports whether the backend moves frames.
	start(workers int, frameTimeout time.Duration) (framed bool, err error)
	// exchange ships out[src][dst] into in[dst][src] for every ordered pair
	// of distinct workers, reusing in's buffers, and returns the bytes that
	// crossed, frame headers included. An unframed backend is handed nil.
	exchange(step int, out, in [][]frame) (int64, error)
	// close releases sockets and buffers after the run.
	close() error
}

// frame is one (source, destination) worker pair's superstep traffic in
// wire form: count envelopes, encoded back to back in payload.
type frame struct {
	payload []byte
	count   uint32
}

// MemoryTransport returns the in-process backend: records move between
// workers as Go values, with no serialization. Bytes are accounted from the
// engine's codec sizes (0 without a codec).
func MemoryTransport() Transport { return memoryTransport{} }

type memoryTransport struct{}

func (memoryTransport) start(int, time.Duration) (bool, error)            { return false, nil }
func (memoryTransport) exchange(int, [][]frame, [][]frame) (int64, error) { return 0, nil }
func (memoryTransport) close() error                                      { return nil }

// frameHeaderSize is the fixed per-frame overhead on the TCP wire: payload
// length, superstep (desync check), and envelope count.
const frameHeaderSize = 12

// maxFramePayload bounds a frame's payload on both ends: the length header is
// a uint32, and a reader refuses to allocate for more than this.
const maxFramePayload = 1 << 30

// TCPTransport returns a loopback TCP backend: each worker listens on a
// 127.0.0.1 port, the mesh is dialed at start, and every superstep each
// worker ships one length-prefixed frame of codec-encoded envelopes to every
// peer (empty frames act as barrier acks). Same-worker messages never touch
// a socket, mirroring how a Giraph worker short-circuits local traffic.
//
// The engine must be configured with a Codec, or Run fails.
func TCPTransport() Transport { return &tcpTransport{} }

type tcpTransport struct {
	timeout   time.Duration
	listeners []net.Listener
	send      [][]net.Conn // [src][dst], nil on the diagonal
	recv      [][]net.Conn // [dst][src], nil on the diagonal
}

func (t *tcpTransport) start(n int, frameTimeout time.Duration) (bool, error) {
	t.timeout = frameTimeout
	t.listeners = make([]net.Listener, n)
	t.send = make([][]net.Conn, n)
	t.recv = make([][]net.Conn, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.close()
			return true, err
		}
		t.listeners[i] = ln
		t.send[i] = make([]net.Conn, n)
		t.recv[i] = make([]net.Conn, n)
	}

	// Accept and dial concurrently: every worker dials every peer's
	// listener and identifies itself with a 4-byte hello.
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		first := firstErr == nil
		if first {
			firstErr = err
		}
		mu.Unlock()
		if first {
			// A failed dial leaves the destination's accept loop waiting for
			// a hello that will never come; closing the listeners makes every
			// blocked Accept return so wg.Wait cannot deadlock.
			for _, ln := range t.listeners {
				ln.Close()
			}
		}
	}
	for dst := 0; dst < n; dst++ {
		wg.Add(1)
		go func(dst int) {
			defer wg.Done()
			for i := 0; i < n-1; i++ {
				conn, err := t.listeners[dst].Accept()
				if err != nil {
					fail(err)
					return
				}
				var hello [4]byte
				if _, err := io.ReadFull(conn, hello[:]); err != nil {
					fail(err)
					return
				}
				src := int(binary.LittleEndian.Uint32(hello[:]))
				if src < 0 || src >= n || src == dst {
					fail(fmt.Errorf("pregel: bad transport hello from worker %d", src))
					return
				}
				mu.Lock()
				t.recv[dst][src] = conn
				mu.Unlock()
			}
		}(dst)
	}
	for src := 0; src < n; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for dst := 0; dst < n; dst++ {
				if dst == src {
					continue
				}
				conn, err := net.Dial("tcp", t.listeners[dst].Addr().String())
				if err != nil {
					fail(err)
					return
				}
				var hello [4]byte
				binary.LittleEndian.PutUint32(hello[:], uint32(src))
				if _, err := conn.Write(hello[:]); err != nil {
					fail(err)
					return
				}
				t.send[src][dst] = conn
			}
		}(src)
	}
	wg.Wait()
	if firstErr != nil {
		t.close()
		return true, firstErr
	}
	return true, nil
}

func (t *tcpTransport) exchange(step int, out, in [][]frame) (int64, error) {
	n := len(t.send)
	var wire atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	// One writer and one reader goroutine per (src, dst) pair: with every
	// endpoint draining independently, a full socket buffer can never
	// deadlock the barrier.
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if dst == src {
				continue // local traffic never touches a socket
			}
			wg.Add(1)
			go func(src, dst int) {
				defer wg.Done()
				nb, err := t.writeFrame(src, dst, step, out[src][dst])
				if err != nil {
					// The write may have landed partially, poisoning the
					// frame stream to dst: blame dst and let the engine roll
					// back to a checkpoint rather than retry in place.
					fail(&WorkerFailure{Worker: dst, Superstep: step,
						Err: fmt.Errorf("worker %d -> %d: %w", src, dst, err)})
					// Unblock the peer's reader: no frame is coming.
					t.send[src][dst].Close()
					return
				}
				wire.Add(nb)
			}(src, dst)
			wg.Add(1)
			go func(src, dst int) {
				defer wg.Done()
				if err := t.readFrame(src, dst, step, &in[dst][src]); err != nil {
					fail(&WorkerFailure{Worker: src, Superstep: step,
						Err: fmt.Errorf("worker %d <- %d: %w", dst, src, err)})
					// Unblock a writer mid-frame on the dead connection.
					t.recv[dst][src].Close()
				}
			}(src, dst)
		}
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	return wire.Load(), nil
}

// writeFrame ships f from src to dst behind its header, returning the bytes
// written (header included).
func (t *tcpTransport) writeFrame(src, dst, step int, f frame) (int64, error) {
	if len(f.payload) > maxFramePayload {
		// Refuse to emit what readFrame would reject: a wrapped uint32
		// length header would desync the whole barrier.
		return 0, fmt.Errorf("frame payload too large (%d bytes)", len(f.payload))
	}
	var header [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(header[0:4], uint32(len(f.payload)))
	binary.LittleEndian.PutUint32(header[4:8], uint32(step))
	binary.LittleEndian.PutUint32(header[8:12], f.count)
	conn := t.send[src][dst]
	if t.timeout > 0 {
		//shp:nondet(I/O deadline: wall time bounds a syscall, never feeds computation)
		conn.SetWriteDeadline(time.Now().Add(t.timeout))
	}
	bufs := net.Buffers{header[:], f.payload}
	if _, err := bufs.WriteTo(conn); err != nil {
		return 0, err
	}
	return int64(frameHeaderSize + len(f.payload)), nil
}

// readFrame receives one frame from src on dst's endpoint into f, reusing its
// payload buffer. The engine decodes it once every frame is in.
func (t *tcpTransport) readFrame(src, dst, step int, f *frame) error {
	conn := t.recv[dst][src]
	if t.timeout > 0 {
		// One deadline covers the whole frame: a peer that stalls mid-frame
		// is as dead as one that never sends the header.
		//shp:nondet(I/O deadline: wall time bounds a syscall, never feeds computation)
		conn.SetReadDeadline(time.Now().Add(t.timeout))
	}
	var header [frameHeaderSize]byte
	if _, err := io.ReadFull(conn, header[:]); err != nil {
		return err
	}
	payloadLen := binary.LittleEndian.Uint32(header[0:4])
	gotStep := binary.LittleEndian.Uint32(header[4:8])
	if int(gotStep) != step {
		return fmt.Errorf("superstep desync: frame for step %d during step %d", gotStep, step)
	}
	if payloadLen > maxFramePayload {
		return fmt.Errorf("oversized frame (%d bytes)", payloadLen)
	}
	f.payload = slices.Grow(f.payload[:0], int(payloadLen))[:payloadLen]
	f.count = binary.LittleEndian.Uint32(header[8:12])
	_, err := io.ReadFull(conn, f.payload)
	return err
}

func (t *tcpTransport) close() error {
	for _, row := range t.send {
		for _, c := range row {
			if c != nil {
				c.Close()
			}
		}
	}
	for _, row := range t.recv {
		for _, c := range row {
			if c != nil {
				c.Close()
			}
		}
	}
	for _, ln := range t.listeners {
		if ln != nil {
			ln.Close()
		}
	}
	t.send, t.recv, t.listeners = nil, nil, nil
	return nil
}
