package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"solarml/internal/nn"
	"solarml/internal/obs"
	"solarml/internal/tensor"
)

// testModel lowers a small random CNN: serving correctness only needs a
// valid int8 program, not a trained one.
func testModel(t testing.TB) (*nn.Int8Model, *tensor.Tensor) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	arch := &nn.Arch{
		Input: []int{1, 4, 16},
		Body: []nn.LayerSpec{
			{Kind: nn.KindConv, Out: 4, K: 3, Stride: 1, Pad: 1},
			{Kind: nn.KindReLU},
			{Kind: nn.KindMaxPool, K: 2},
			{Kind: nn.KindDense, Out: 8},
			{Kind: nn.KindReLU},
		},
		Classes: 3,
	}
	net, err := arch.Build()
	if err != nil {
		t.Fatal(err)
	}
	net.Init(rng)
	calib := tensor.New(24, 1, 4, 16)
	for i := range calib.Data {
		calib.Data[i] = rng.NormFloat64()
	}
	m, err := nn.ConvertInt8(arch, net, calib, nn.PTQConfig{WeightBits: 8, ActBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	return m, calib
}

func TestClassifyMatchesExecutor(t *testing.T) {
	m, calib := testModel(t)
	reg := obs.NewRegistry()
	s, err := New(Config{Model: m, Reg: reg, BatchDeadline: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	inVol := m.InVol()
	ex := m.NewExecutor(nil, 1)
	for i := 0; i < 8; i++ {
		x := calib.Data[i*inVol : (i+1)*inVol]
		got, err := s.Classify(x)
		if err != nil {
			t.Fatal(err)
		}
		want := ex.Forward(x, 1)
		arg := 0
		for j := 1; j < m.Classes(); j++ {
			if want[j] > want[arg] {
				arg = j
			}
		}
		if got.Class != arg {
			t.Fatalf("sample %d: class %d, want %d", i, got.Class, arg)
		}
		for j, v := range got.Logits {
			if v != want[j] {
				t.Fatalf("sample %d logit %d: %v, want %v", i, j, v, want[j])
			}
		}
	}
	if n := reg.Counter("serve.samples").Value(); n != 8 {
		t.Fatalf("serve.samples = %d, want 8", n)
	}
	if n := reg.Counter("serve.batches").Value(); n != 8 {
		t.Fatalf("serve.batches = %d, want 8 (serial classifies cannot coalesce)", n)
	}
}

// TestBatchCoalescing pins the micro-batching behavior: with a generous
// deadline and one worker, concurrent samples run in far fewer batches than
// samples.
func TestBatchCoalescing(t *testing.T) {
	m, calib := testModel(t)
	reg := obs.NewRegistry()
	s, err := New(Config{
		Model: m, Reg: reg,
		MaxBatch: 8, Workers: 1, BatchDeadline: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// One ClassifyBatch enqueues all samples before waiting, so the single
	// worker must coalesce them.
	xs := make([][]float64, 8)
	inVol := m.InVol()
	for i := range xs {
		xs[i] = calib.Data[i*inVol : (i+1)*inVol]
	}
	if _, err := s.ClassifyBatch(xs); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("serve.batches").Value(); n >= 8 {
		t.Fatalf("serve.batches = %d, want coalescing (< 8)", n)
	}
	if n := reg.Counter("serve.samples").Value(); n != 8 {
		t.Fatalf("serve.samples = %d, want 8", n)
	}
}

// TestConcurrentClassify hammers the batcher from many goroutines and
// checks every caller gets its own sample's logits back (no cross-wiring).
func TestConcurrentClassify(t *testing.T) {
	m, calib := testModel(t)
	s, err := New(Config{Model: m, MaxBatch: 4, Workers: 2, BatchDeadline: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	inVol := m.InVol()
	ref := m.NewExecutor(nil, 1)
	want := make([][]float64, 16)
	for i := range want {
		want[i] = append([]float64(nil), ref.Forward(calib.Data[i*inVol:(i+1)*inVol], 1)...)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				res, err := s.Classify(calib.Data[i*inVol : (i+1)*inVol])
				if err != nil {
					errs <- err
					return
				}
				for j, v := range res.Logits {
					if v != want[i][j] {
						errs <- fmt.Errorf("sample %d logit %d: %v, want %v", i, j, v, want[i][j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestClassifyHTTP(t *testing.T) {
	m, calib := testModel(t)
	reg := obs.NewRegistry()
	s, err := New(Config{Model: m, Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	inVol := m.InVol()
	body, _ := json.Marshal(classifyRequest{Instances: [][]float64{
		calib.Data[:inVol],
		calib.Data[inVol : 2*inVol],
	}})
	resp, err := http.Post(srv.URL+"/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out classifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Predictions) != 2 {
		t.Fatalf("%d predictions, want 2", len(out.Predictions))
	}
	for _, p := range out.Predictions {
		if len(p.Logits) != m.Classes() {
			t.Fatalf("%d logits, want %d", len(p.Logits), m.Classes())
		}
		if p.Class < 0 || p.Class >= m.Classes() {
			t.Fatalf("class %d out of range", p.Class)
		}
	}
	if n := reg.Counter("serve.requests").Value(); n != 1 {
		t.Fatalf("serve.requests = %d, want 1", n)
	}
	if n := reg.Counter("serve.samples").Value(); n != 2 {
		t.Fatalf("serve.samples = %d, want 2", n)
	}
}

func TestHTTPErrors(t *testing.T) {
	m, calib := testModel(t)
	reg := obs.NewRegistry()
	s, err := New(Config{Model: m, Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(body string) *http.Response {
		resp, err := http.Post(srv.URL+"/classify", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := post("{not json"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d", resp.StatusCode)
	}
	if resp := post(`{"instances":[]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("no instances: status %d", resp.StatusCode)
	}
	if resp := post(`{"instances":[[1,2,3]]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short instance: status %d", resp.StatusCode)
	}
	resp, err := http.Get(srv.URL + "/classify")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /classify: status %d", resp.StatusCode)
	}
	if reg.Counter("serve.errors").Value() < 3 {
		t.Fatalf("serve.errors = %d, want ≥ 3", reg.Counter("serve.errors").Value())
	}

	// Health and status still serve.
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: status %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var st statusResponse
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Classes != m.Classes() || st.WeightBits != 8 || len(st.InShape) != 3 {
		t.Fatalf("status = %+v", st)
	}
	_ = calib
}

func TestClose(t *testing.T) {
	m, calib := testModel(t)
	s, err := New(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	inVol := m.InVol()
	if _, err := s.Classify(calib.Data[:inVol]); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Classify(calib.Data[:inVol]); err != ErrClosed {
		t.Fatalf("Classify after Close: %v, want ErrClosed", err)
	}
	body, _ := json.Marshal(classifyRequest{Instances: [][]float64{calib.Data[:inVol]}})
	resp, err := http.Post(srv.URL+"/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST after Close: status %d, want 503", resp.StatusCode)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil model accepted")
	}
}

// TestBatchSecondsBeforeReply pins the batch histogram's ordering: a
// worker observes serve.batch_seconds before it releases the batch's
// callers, so a /metrics scrape right after a reply already counts that
// reply's batch. Serial requests run one batch each.
func TestBatchSecondsBeforeReply(t *testing.T) {
	m, calib := testModel(t)
	reg := obs.NewRegistry()
	s, err := New(Config{Model: m, Reg: reg, BatchDeadline: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	mux.Handle("/metrics", reg.PrometheusHandler())
	srv := httptest.NewServer(mux)
	defer srv.Close()

	body, _ := json.Marshal(classifyRequest{Instances: [][]float64{calib.Data[:m.InVol()]}})
	for n := 1; n <= 20; n++ {
		resp, err := http.Post(srv.URL+"/classify", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("classify status %d", resp.StatusCode)
		}
		resp, err = http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var text bytes.Buffer
		_, err = text.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			fmt.Sprintf("serve_batches %d\n", n),
			fmt.Sprintf("serve_batch_seconds_count %d\n", n),
		} {
			if !strings.Contains(text.String(), want) {
				t.Fatalf("scrape after reply %d lacks %q:\n%s", n, strings.TrimSpace(want), text.String())
			}
		}
	}
}
