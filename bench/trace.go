package bench

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer's public API. Parent is the id of the
// span that was open when this one began (-1 for a root), so a trace file is
// a forest: one root per set-up, warm-up, rep or epoch, with the public
// calls made inside it as children.
type Span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// Tracer times calls and, while recording, keeps their spans in memory
// until the run ends. Timing never depends on whether spans are recorded:
// Span always reads the clock twice, so the untraced and traced passes run
// the same code apart from one append.
//
// The mutex is for the checkpoint decorator, whose Save runs on an engine
// goroutine while the driver goroutine waits inside the PartitionDistributed
// span; spans still nest strictly because only one side runs at a time.
type Tracer struct {
	Workload string

	mu        sync.Mutex
	origin    time.Time
	recording bool
	rep       int
	open      []int
	spans     []Span
}

// NewTracer returns a tracer that times but does not record.
func NewTracer(workload string) *Tracer {
	return &Tracer{Workload: workload, origin: time.Now()}
}

// Record switches span recording on or off and sets the rep index stamped
// on the spans that follow.
func (t *Tracer) Record(on bool, rep int) {
	t.mu.Lock()
	t.recording, t.rep = on, rep
	t.mu.Unlock()
}

// Span runs f and returns how long it took, recording a span named name
// when recording is on.
func (t *Tracer) Span(name string, f func()) time.Duration {
	t.mu.Lock()
	id := -1
	if t.recording {
		id = len(t.spans)
		parent := -1
		if n := len(t.open); n > 0 {
			parent = t.open[n-1]
		}
		t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Workload: t.Workload, Rep: t.rep})
		t.open = append(t.open, id)
	}
	t.mu.Unlock()

	start := time.Now()
	f()
	end := time.Now()

	if id >= 0 {
		t.mu.Lock()
		t.spans[id].StartNS = start.Sub(t.origin).Nanoseconds()
		t.spans[id].EndNS = end.Sub(t.origin).Nanoseconds()
		t.open = t.open[:len(t.open)-1]
		t.mu.Unlock()
	}
	return end.Sub(start)
}

// Spans returns the recorded spans in start order.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Seconds returns the durations of every recorded span with the given name.
func (t *Tracer) Seconds(name string) []float64 {
	var out []float64
	for _, s := range t.Spans() {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e9)
		}
	}
	return out
}

// WriteJSONL writes one span per line.
func (t *Tracer) WriteJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SelfTimes returns, per span id, the span's duration minus the part of
// its interval that its direct children cover (overlapping children are
// counted once).
func SelfTimes(spans []Span) []int64 {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNS < kids[b].StartNS })
		covered, reach := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, reach), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.EndNS - s.StartNS - covered
	}
	return self
}

// SelfSeconds sums self time by span name: where the traced wall went,
// layer by layer.
func SelfSeconds(spans []Span) map[string]float64 {
	out := make(map[string]float64)
	for i, ns := range SelfTimes(spans) {
		out[spans[i].Name] += float64(ns) / 1e9
	}
	return out
}
