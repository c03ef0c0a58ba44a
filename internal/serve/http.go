package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// Handler exposes the service over HTTP:
//
//	GET  /assign?v=ID        bucket serving vertex ID, with the epoch id
//	GET  /epoch              current epoch metadata (no assignment body)
//	GET  /stats              service counters (Stats)
//	POST /delta              apply a delta trace (hgio trace format) from
//	                         the request body (at most maxDeltaBody bytes,
//	                         else 413); ?repartition=1 publishes a new
//	                         epoch immediately after; a refused trace
//	                         still reports the batches applied before it
//	POST /repartition        run one epoch and swap
//
// Lookup endpoints never block behind mutations; mutation endpoints
// serialize with each other.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /assign", s.handleAssign)
	mux.HandleFunc("GET /epoch", s.handleEpoch)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("POST /delta", s.handleDelta)
	mux.HandleFunc("POST /repartition", s.handleRepartition)
	return mux
}

// assignReply is the /assign response body.
type assignReply struct {
	Vertex int32  `json:"vertex"`
	Bucket int32  `json:"bucket"`
	Epoch  uint64 `json:"epoch"`
}

// epochReply is the /epoch and /repartition response body: Epoch metadata
// without the assignment (which can be millions of records).
type epochReply struct {
	ID       uint64  `json:"id"`
	K        int     `json:"k"`
	Records  int     `json:"records"`
	Moved    int64   `json:"moved"`
	Migrated int64   `json:"migrated"`
	Fanout   float64 `json:"fanout"`
	Checksum uint64  `json:"checksum"`
	// SwappedAt is RFC 3339 with nanoseconds; telemetry only.
	SwappedAt string `json:"swapped_at"`
	// AvgReplayLatency is the mean simulated query latency (units of t)
	// when the service replays workloads per epoch; 0 otherwise.
	AvgReplayLatency float64 `json:"avg_replay_latency,omitempty"`
	AvgReplayFanout  float64 `json:"avg_replay_fanout,omitempty"`
}

func newEpochReply(ep *Epoch) epochReply {
	r := epochReply{
		ID:        ep.ID,
		K:         ep.K,
		Records:   len(ep.Assignment),
		Moved:     ep.Moved,
		Migrated:  ep.Migrated,
		Fanout:    ep.Fanout,
		Checksum:  ep.Checksum,
		SwappedAt: ep.SwappedAt.Format("2006-01-02T15:04:05.999999999Z07:00"),
	}
	if ep.Replay != nil {
		r.AvgReplayLatency = ep.Replay.AvgLat
		r.AvgReplayFanout = ep.Replay.AvgFanout
	}
	return r
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// An encode error means the client hung up mid-response; there is no
	// one left to report it to.
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, struct {
		Error string `json:"error"`
	}{err.Error()})
}

func (s *Service) handleAssign(w http.ResponseWriter, r *http.Request) {
	raw := r.URL.Query().Get("v")
	v, err := strconv.ParseInt(raw, 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad vertex %q: %w", raw, err))
		return
	}
	bucket, epoch, err := s.Assign(int32(v))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, assignReply{Vertex: int32(v), Bucket: bucket, Epoch: epoch})
}

func (s *Service) handleEpoch(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, newEpochReply(s.Current()))
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// maxDeltaBody bounds a POST /delta request body. A trace is parsed whole
// before any of it is applied, so without a bound one request could hold an
// arbitrary amount of memory; 32 MiB is a few hundred thousand hyperedge
// edits, far past any per-epoch churn batch.
const maxDeltaBody = 32 << 20

// deltaReply is the /delta response body. A refused trace adds Error: a
// parse error (an oversized body included) comes before any batch is
// applied, but a batch that fails to apply leaves the batches before it
// applied, and Applied says how many.
type deltaReply struct {
	Applied int    `json:"applied"`
	Epoch   uint64 `json:"epoch"`
	Error   string `json:"error,omitempty"`
}

func (s *Service) handleDelta(w http.ResponseWriter, r *http.Request) {
	applied, err := s.ApplyTrace(http.MaxBytesReader(w, r.Body, maxDeltaBody))
	reply := deltaReply{Applied: applied, Epoch: s.Current().ID}
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		reply.Error = err.Error()
		writeJSON(w, status, reply)
		return
	}
	if r.URL.Query().Get("repartition") == "1" {
		ep, err := s.Repartition()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		reply.Epoch = ep.ID
	}
	writeJSON(w, http.StatusOK, reply)
}

func (s *Service) handleRepartition(w http.ResponseWriter, r *http.Request) {
	ep, err := s.Repartition()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, newEpochReply(ep))
}
