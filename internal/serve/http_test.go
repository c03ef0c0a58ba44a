package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func doJSON(t *testing.T, h http.Handler, method, target, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body != "" {
		r = httptest.NewRequest(method, target, strings.NewReader(body))
	} else {
		r = httptest.NewRequest(method, target, nil)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if out != nil && w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, target, w.Body.String(), err)
		}
	}
	return w
}

func TestHTTPAssign(t *testing.T) {
	s := testService(t, 31, 0)
	h := s.Handler()
	ep := s.Current()

	var reply assignReply
	if w := doJSON(t, h, "GET", "/assign?v=5", "", &reply); w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if reply.Vertex != 5 || reply.Bucket != ep.Assignment[5] || reply.Epoch != ep.ID {
		t.Fatalf("reply %+v does not match snapshot", reply)
	}
	if w := doJSON(t, h, "GET", "/assign?v=notanumber", "", nil); w.Code != http.StatusBadRequest {
		t.Fatalf("garbage vertex: status %d", w.Code)
	}
	if w := doJSON(t, h, "GET", "/assign?v=99999999", "", nil); w.Code != http.StatusNotFound {
		t.Fatalf("out-of-snapshot vertex: status %d", w.Code)
	}
}

func TestHTTPEpochAndStats(t *testing.T) {
	s := testService(t, 32, 0)
	h := s.Handler()

	var ep epochReply
	doJSON(t, h, "GET", "/epoch", "", &ep)
	cur := s.Current()
	if ep.ID != cur.ID || ep.Records != len(cur.Assignment) || ep.Checksum != cur.Checksum {
		t.Fatalf("epoch reply %+v does not match Current()", ep)
	}
	doJSON(t, h, "GET", "/assign?v=0", "", nil)
	var st Stats
	doJSON(t, h, "GET", "/stats", "", &st)
	if st.Lookups == 0 || st.Swaps != 1 {
		t.Fatalf("stats %+v after one lookup and one swap", st)
	}
}

func TestHTTPRepartition(t *testing.T) {
	s := testService(t, 33, 0)
	h := s.Handler()
	var ep epochReply
	if w := doJSON(t, h, "POST", "/repartition", "", &ep); w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if ep.ID != 1 {
		t.Fatalf("repartition published epoch %d, want 1", ep.ID)
	}
	if s.Current().ID != 1 {
		t.Fatal("swap not visible to lookups")
	}
}

func TestHTTPDelta(t *testing.T) {
	s := testService(t, 34, 0)
	h := s.Handler()

	// One batch adding a hyperedge over existing data vertices. The change
	// is invisible until a repartition.
	trace := "addq 1 0 1 2\ncommit\n"
	var reply struct {
		Applied int    `json:"applied"`
		Epoch   uint64 `json:"epoch"`
	}
	if w := doJSON(t, h, "POST", "/delta", trace, &reply); w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if reply.Applied != 1 || reply.Epoch != 0 {
		t.Fatalf("reply %+v, want 1 batch applied and epoch still 0", reply)
	}

	// Same again with an immediate repartition: the epoch advances.
	if w := doJSON(t, h, "POST", "/delta?repartition=1", trace, &reply); w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if reply.Epoch != 1 {
		t.Fatalf("delta+repartition left epoch at %d", reply.Epoch)
	}

	if w := doJSON(t, h, "POST", "/delta", "addq not a trace\n", nil); w.Code != http.StatusBadRequest {
		t.Fatalf("malformed trace: status %d", w.Code)
	}
}

// commentPad is an endless stream of trace comment lines.
type commentPad struct{}

func (commentPad) Read(p []byte) (int, error) {
	const line = "# padding padding padding padding padding padding padding\n"
	n := 0
	for n+len(line) <= len(p) {
		n += copy(p[n:], line)
	}
	if n == 0 {
		n = copy(p, line[len(line)-1:]) // a bare newline keeps lines whole
	}
	return n, nil
}

// TestHTTPDeltaBodyLimit: a trace past maxDeltaBody is refused with 413 and
// the usual JSON error, and — although it opens with a valid batch — nothing
// of it is applied: graph version and epoch id stay where they were.
func TestHTTPDeltaBodyLimit(t *testing.T) {
	s := testService(t, 35, 0)
	h := s.Handler()
	version, epoch := s.session.Graph().Version(), s.Current().ID

	body := io.MultiReader(
		strings.NewReader("addq 1 0 1 2\ncommit\n"),
		io.LimitReader(commentPad{}, maxDeltaBody),
	)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/delta?repartition=1", body))
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized trace: status %d, want 413: %s", w.Code, w.Body.String())
	}
	var reply struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil || reply.Error == "" {
		t.Fatalf("oversized trace: body %q is not the JSON error shape (%v)", w.Body.String(), err)
	}
	if got := s.session.Graph().Version(); got != version {
		t.Fatalf("graph version moved %d -> %d on a refused trace", version, got)
	}
	if got := s.Current().ID; got != epoch {
		t.Fatalf("epoch id moved %d -> %d on a refused trace", epoch, got)
	}

	// A body of exactly the limit is still accepted.
	const trace = "addq 1 0 1 2\ncommit\n"
	body = io.MultiReader(strings.NewReader(trace), io.LimitReader(commentPad{}, maxDeltaBody-int64(len(trace))))
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/delta", body))
	if w.Code != http.StatusOK {
		t.Fatalf("trace of exactly the limit: status %d: %s", w.Code, w.Body.String())
	}
	if got := s.session.Graph().Version(); got == version {
		t.Fatal("accepted trace did not change the graph version")
	}
}
