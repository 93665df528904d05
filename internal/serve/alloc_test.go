//go:build !race

package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/url"
	"testing"
)

// discardWriter is a reusable ResponseWriter: it keeps the status and the
// reply length and drops the bytes.
type discardWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *discardWriter) Header() http.Header { return w.h }

func (w *discardWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return len(b), nil
}

func (w *discardWriter) WriteHeader(code int) { w.code = code }

// rewindBody is a request body a test can rewind between requests.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// TestClassifyHandlerAllocs pins the cost of a warm one-instance /classify
// request through the handler: the body, sample and reply buffers are
// pooled, so the one allocation left is the request's body limiter
// (http.MaxBytesReader). The reflective encoding/json codec made 27 on this
// request. (Excluded under -race, whose instrumentation changes allocation
// behaviour.)
func TestClassifyHandlerAllocs(t *testing.T) {
	m, calib := testModel(t)
	s, err := New(Config{Model: m, BatchDeadline: -1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	body, err := json.Marshal(classifyRequest{Instances: [][]float64{calib.Data[:m.InVol()]}})
	if err != nil {
		t.Fatal(err)
	}
	var rb rewindBody
	req := &http.Request{Method: http.MethodPost, URL: &url.URL{Path: "/classify"},
		Header: http.Header{}, Body: &rb, ContentLength: int64(len(body))}
	w := &discardWriter{h: http.Header{}}
	h := s.Handler()
	serveOnce := func() {
		rb.Reset(body)
		w.code, w.n = http.StatusOK, 0
		h.ServeHTTP(w, req)
	}
	serveOnce()
	allocs := testing.AllocsPerRun(200, serveOnce)
	if w.code != http.StatusOK || w.n == 0 {
		t.Fatalf("status %d, %d reply bytes", w.code, w.n)
	}
	if allocs > 1 {
		t.Errorf("warm /classify: %.0f allocs per request, want ≤ 1", allocs)
	}
}
