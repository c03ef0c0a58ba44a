package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"shp/internal/core"
	"shp/internal/gen"
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

// TestHTTPDeltaStallDoesNotBlockRepartition: a /delta client that sends one
// line of its trace and then stalls holds up neither a repartition nor its
// own trace, which applies once the body ends.
func TestHTTPDeltaStallDoesNotBlockRepartition(t *testing.T) {
	s := testService(t, 37, 0)
	h := s.Handler()
	version := s.session.Graph().Version()

	pr, pw := io.Pipe()
	done := make(chan *httptest.ResponseRecorder)
	go func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/delta", pr))
		done <- w
	}()
	// A pipe write returns once the handler has read it: the upload is
	// under way when the stall begins.
	if _, err := io.WriteString(pw, "addq 1 0 1 2\n"); err != nil {
		t.Fatal(err)
	}
	repartitioned := make(chan error)
	go func() {
		_, err := s.Repartition()
		repartitioned <- err
	}()
	select {
	case err := <-repartitioned:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(100 * time.Millisecond):
		pw.CloseWithError(io.ErrUnexpectedEOF)
		<-done
		<-repartitioned
		t.Fatal("Repartition blocked behind a stalled /delta body")
	}
	if _, err := io.WriteString(pw, "commit\n"); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if w := <-done; w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if got := s.session.Graph().Version(); got != version+1 {
		t.Fatalf("graph version %d -> %d, want the stalled trace's one batch", version, got)
	}
}

// TestHTTPDeltaPartialApply: a trace whose second batch fails to apply is
// refused with 400, but its first batch stays applied, and the error body
// says so — applied 1 and the epoch still serving — so a client can tell a
// partial apply from a parse error.
func TestHTTPDeltaPartialApply(t *testing.T) {
	s := testService(t, 36, 0)
	h := s.Handler()
	version := s.session.Graph().Version()

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/delta?repartition=1",
		strings.NewReader("addq 1 0 1 2\ncommit\nrmq 99999999\ncommit\n")))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", w.Code, w.Body.String())
	}
	var reply deltaReply
	if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil {
		t.Fatalf("body %q: %v", w.Body.String(), err)
	}
	if reply.Error == "" || reply.Applied != 1 || reply.Epoch != 0 {
		t.Fatalf("reply %+v, want an error with 1 batch applied at epoch 0", reply)
	}
	if got := s.session.Graph().Version(); got != version+1 {
		t.Fatalf("graph version %d -> %d, want the one applied batch", version, got)
	}
	if s.Current().ID != 0 {
		t.Fatal("a refused trace repartitioned")
	}
}

// FuzzHTTPDelta posts arbitrary bodies to /delta on a fresh service. Whatever
// the body, the reply is JSON with status 200, 400 or 413, the graph still
// validates, a reply that applied nothing left the graph version alone, and
// the service can still repartition.
func FuzzHTTPDelta(f *testing.F) {
	for _, seed := range []string{
		"addq 1 0 1 2\ncommit\n",
		"addq 1 0 1 2\ncommit\nrmq 99999999\ncommit\n",
		"addd 3\naddq 2 0 600\nsetw 600 5\ncommit\nrmq 0\n",
		"addq not a trace\n",
		"setw -1 2\ncommit\n",
		"addq 1 2147483647\ncommit\n",
		"rmq 0\nrmq 0\ncommit\n",
		"# comment only\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	g, err := gen.SocialEgoNets(300, 8, 30, 0.85, 7)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := New(g.Clone(), Options{Core: core.Options{K: 4, Direct: true, Seed: 7}})
		if err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		version := s.session.Graph().Version()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/delta", bytes.NewReader(body)))
		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
		var reply deltaReply
		if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil {
			t.Fatalf("status %d body %q is not JSON: %v", w.Code, w.Body.String(), err)
		}
		if err := s.session.Graph().Validate(); err != nil {
			t.Fatalf("graph invalid after %+v: %v", reply, err)
		}
		if reply.Applied == 0 && s.session.Graph().Version() != version {
			t.Fatalf("reply %+v applied nothing, but the graph version moved", reply)
		}
		if w := doJSON(t, h, "POST", "/repartition", "", nil); w.Code != http.StatusOK {
			t.Fatalf("repartition after %+v: status %d: %s", reply, w.Code, w.Body.String())
		}
	})
}
