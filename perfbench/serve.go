package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"time"

	"solarml/internal/compute"
	"solarml/internal/dataset"
	"solarml/internal/nn"
	"solarml/internal/obs"
	"solarml/internal/serve"
)

// Serve traffic: one caller sending each request when the reply to the
// last has arrived (a closed loop), one gesture window per request, as each
// user interaction of a device senses and classifies one
// (internal/firmware). One caller times the request path itself; more
// measured the shared host's scheduler: on a 2-vCPU VM, ten runs of 4
// callers spread by 0.28 of their median p50, 32 callers (enough to fill
// cmd/serve's batches of 16) by up to a third, and an open loop at half
// capacity overran its in-flight cap whenever the host ran slow. A lone
// request never fills a batch, so the server runs with no batch deadline,
// and latency is the cost of one request through HTTP, JSON, and the int8
// executor.
const (
	serveBodies   = 256 // distinct request bodies, cycled through
	serveDeadline = -1  // cmd/serve -batch-deadline: negative never waits
)

// serveRequest is one pre-encoded /classify body with its expected answer.
type serveRequest struct {
	body    []byte
	classes []int
	logits  [][]float64
}

type serveBench struct {
	reqs  []serveRequest
	trace bool

	srv    *serve.Server
	hs     *http.Server
	served chan error
	client *http.Client
	url    string
	reg    *obs.Registry
}

// serveWorkload serves cmd/deploy's default gesture model through
// cmd/serve's stack (container decode, batching server with the command's
// default workers, batch size and compute context, HTTP/JSON) on a loopback
// port. The model is trained briefly and lowered to int8 before timing
// starts; set-up is what a server start costs: decode the model file,
// allocate the executors, listen, and answer a health check.
func serveWorkload(seed int64, trace bool) (func() (bench, error), error) {
	model, reqs, err := serveInputs(seed)
	if err != nil {
		return nil, err
	}
	return func() (bench, error) {
		m, err := nn.LoadInt8Model(bytes.NewReader(model))
		if err != nil {
			return nil, fmt.Errorf("load model: %w", err)
		}
		s := &serveBench{reqs: reqs, trace: trace, served: make(chan error, 1)}
		if trace {
			s.reg = obs.NewRegistry()
		}
		const workers = 2
		s.srv, err = serve.New(serve.Config{
			Model: m, Compute: compute.NewContextFor(compute.BudgetWorkers(workers), s.reg),
			MaxBatch: 16, BatchDeadline: serveDeadline, Workers: workers, Reg: s.reg,
		})
		if err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.srv.Close()
			return nil, err
		}
		s.url = "http://" + ln.Addr().String()
		s.hs = &http.Server{Handler: s.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
		go func() { s.served <- s.hs.Serve(ln) }()
		s.client = &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   30 * time.Second,
		}
		resp, err := s.client.Get(s.url + "/healthz")
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("health check: %w", err)
		}
		return s, nil
	}, nil
}

// serveInputs trains and lowers the served model and encodes the request
// bodies with their expected predictions, computed on a private executor.
func serveInputs(seed int64) (model []byte, reqs []serveRequest, err error) {
	cand, err := deployCandidate()
	if err != nil {
		return nil, nil, err
	}
	x, y, err := dataset.BuildGestureSet(100, 500, seed).Materialize(cand.Gesture)
	if err != nil {
		return nil, nil, err
	}
	netw, err := cand.Arch.Build()
	if err != nil {
		return nil, nil, err
	}
	netw.Init(rand.New(rand.NewSource(seed)))
	netw.Fit(x, y, nn.TrainConfig{Epochs: 2, BatchSize: 16, LR: 0.03, Momentum: 0.9, Seed: seed})
	m, err := nn.ConvertInt8(cand.Arch, netw, x, nn.PTQConfig{WeightBits: 8, ActBits: 8})
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := nn.SaveInt8Model(&buf, m); err != nil {
		return nil, nil, err
	}

	ex := m.NewExecutor(nil, 1)
	vol, n := m.InVol(), x.Shape[0]
	rng := inputRand(seed, 0)
	reqs = make([]serveRequest, serveBodies)
	for i := range reqs {
		row := rng.Intn(n)
		inst := x.Data[row*vol : (row+1)*vol]
		logits := append([]float64(nil), ex.Forward(inst, 1)...)
		r := serveRequest{classes: []int{argmax(logits)}, logits: [][]float64{logits}}
		if r.body, err = json.Marshal(map[string][][]float64{"instances": {inst}}); err != nil {
			return nil, nil, err
		}
		reqs[i] = r
	}
	return buf.Bytes(), reqs, nil
}

func argmax(xs []float64) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}

// post sends request i and checks the reply against the expected answer.
func (s *serveBench) post(i int) error {
	r := s.reqs[i]
	resp, err := s.client.Post(s.url+"/classify", "application/json", bytes.NewReader(r.body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("request %d: status %d: %s", i, resp.StatusCode, body)
	}
	var got struct {
		Predictions []serve.Result `json:"predictions"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return wrongf("request %d: %v", i, err)
	}
	if len(got.Predictions) != len(r.classes) {
		return wrongf("request %d: %d predictions for %d instances", i, len(got.Predictions), len(r.classes))
	}
	for j, p := range got.Predictions {
		if p.Class != r.classes[j] || !slices.Equal(p.Logits, r.logits[j]) {
			return wrongf("request %d instance %d: class %d logits %v, want %d %v", i, j, p.Class, p.Logits, r.classes[j], r.logits[j])
		}
	}
	return nil
}

func (s *serveBench) measure(window time.Duration) tally {
	// Warm-up: every body once, so the connection and executor arenas exist.
	var warm tally
	for i := range s.reqs {
		warm.attempted++
		warm.count(s.post(i))
	}
	before := s.reg.Snapshot()
	t := closedLoop(window, len(s.reqs), func(i int) (int, error) {
		if err := s.post(i % len(s.reqs)); err != nil {
			return 0, err
		}
		return 1, nil
	})
	if s.trace {
		var rtt float64
		for _, r := range t.samples {
			rtt += r.lat
		}
		t.layers = s.layers(before, rtt/float64(len(t.samples)))
	}
	t.addCounts(warm)
	return t
}

// layers splits the mean client round trip into HTTP transport and JSON
// coding, waiting in the batch queue (including the batch deadline), and
// batch execution on the int8 executor, from the growth of the server's own
// histograms over the window.
func (s *serveBench) layers(before obs.Snapshot, rtt float64) map[string]float64 {
	after := s.reg.Snapshot()
	mean := func(name string) float64 {
		a, b := after.Histograms[name], before.Histograms[name]
		if a.Count == b.Count {
			return 0
		}
		return (a.Sum - b.Sum) / float64(a.Count-b.Count)
	}
	server := mean("serve.latency_seconds")
	exec := mean("serve.batch_seconds")
	return map[string]float64{
		"serve_http_pct":  pct(math.Max(rtt-server, 0), rtt),
		"serve_queue_pct": pct(math.Max(server-exec, 0), rtt),
		"serve_exec_pct":  pct(exec, rtt),
	}
}

func (s *serveBench) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	<-s.served
	s.srv.Close()
	s.client.CloseIdleConnections()
}
