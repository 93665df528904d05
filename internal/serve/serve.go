// Package serve is the int8 inference service behind cmd/serve: it loads a
// quantized model from cmd/deploy's pipeline and classifies HTTP/JSON
// requests with adaptive micro-batching.
//
// The batching model: every sample (one instance from a /classify body)
// becomes one queue item. A fixed set of worker goroutines — each owning a
// private zero-alloc Int8Executor — pulls the first available item, then
// coalesces more until either the executor's batch capacity is reached or
// the batch deadline expires, so a lone request pays at most the deadline
// in added latency while a loaded server amortizes the per-batch dispatch
// across full batches. With a zero deadline a worker takes whatever is
// already queued and runs immediately (the low-latency configuration; it
// still forms batches under load because items queue while a batch runs).
//
// The HTTP path decodes a /classify body with a fixed-schema codec
// (codec.go) straight into pooled per-request sample buffers and appends
// the reply into a pooled buffer, so a warm request costs its model, not
// its JSON. Bodies are capped at QueueDepth instances' worth of bytes.
//
// Every stage is observable through the shared obs plumbing: serve.*
// counters and histograms (end-to-end latency, and the decode, queue, batch
// and encode stages) land in the registry the -pprof /metrics
// endpoint exposes, and serve.request / serve.batch spans land in the trace.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"solarml/internal/compute"
	"solarml/internal/nn"
	"solarml/internal/obs"
)

// ErrClosed is returned by Classify calls that race or follow Close.
var ErrClosed = errors.New("serve: server closed")

// Config describes a Server. Model is required; zero values elsewhere pick
// the documented defaults.
type Config struct {
	Model   *nn.Int8Model
	Compute *compute.Context // nil = serial kernels

	MaxBatch      int           // executor batch capacity (default 16)
	BatchDeadline time.Duration // max wait to fill a batch (default 2ms; <0 = no wait)
	Workers       int           // concurrent batch runners (default 2)
	QueueDepth    int           // pending-sample buffer (default 4×MaxBatch)

	Reg *obs.Registry // nil = metrics off
	Rec *obs.Recorder // nil = spans off
}

// Result is one classified sample.
type Result struct {
	Class  int       `json:"class"`
	Logits []float64 `json:"logits"`
}

// request is one sample in flight: its input (inVol values) and, once a
// worker has run it, its logits and argmax class.
type request struct {
	x   []float64
	out []float64
	cls int
	job *job
}

// job is one ClassifyBatch call or /classify request: its samples, the
// signal that the last of them has run, and the HTTP body and reply
// buffers. Jobs are pooled with everything they own, so a warm server
// serves a request without allocating per sample.
type job struct {
	reqs  []*request // reqs[:n] are this call's samples; the rest are spares
	n     int
	start time.Time      // when run queued the samples
	done  sync.WaitGroup // one count per sample in flight
	body  []byte
	reply []byte
}

// sample returns the job's i-th sample buffer, i ≤ len(reqs), allocating it
// on first use.
func (s *Server) sample(j *job, i int) *request {
	if i == len(j.reqs) {
		j.reqs = append(j.reqs, &request{
			x:   make([]float64, s.inVol),
			out: make([]float64, s.classes),
			job: j,
		})
	}
	return j.reqs[i]
}

// Server batches classify requests over a pool of int8 executors.
type Server struct {
	cfg     Config
	inVol   int
	classes int

	queue chan *request
	stop  chan struct{}
	wg    sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	inflight sync.WaitGroup

	jobs    sync.Pool // *job
	maxBody int64     // /classify body cap in bytes

	requests *obs.Counter
	samples  *obs.Counter
	errors   *obs.Counter
	batches  *obs.Counter

	batchSize     *obs.Histogram
	latency       *obs.Histogram
	batchSeconds  *obs.Histogram
	queueSeconds  *obs.Histogram
	decodeSeconds *obs.Histogram
	encodeSeconds *obs.Histogram
}

// New validates cfg, starts the worker pool, and returns the server.
func New(cfg Config) (*Server, error) {
	if cfg.Model == nil {
		return nil, errors.New("serve: Config.Model is required")
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 16
	}
	if cfg.BatchDeadline == 0 {
		cfg.BatchDeadline = 2 * time.Millisecond
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.MaxBatch
	}
	s := &Server{
		cfg:     cfg,
		inVol:   cfg.Model.InVol(),
		classes: cfg.Model.Classes(),
		queue:   make(chan *request, cfg.QueueDepth),
		stop:    make(chan struct{}),

		requests: cfg.Reg.Counter("serve.requests"),
		samples:  cfg.Reg.Counter("serve.samples"),
		errors:   cfg.Reg.Counter("serve.errors"),
		batches:  cfg.Reg.Counter("serve.batches"),

		batchSize:     cfg.Reg.Histogram("serve.batch_size", []float64{1, 2, 4, 8, 16, 32, 64}),
		latency:       cfg.Reg.Histogram("serve.latency_seconds", obs.TimeBuckets),
		batchSeconds:  cfg.Reg.Histogram("serve.batch_seconds", obs.TimeBuckets),
		queueSeconds:  cfg.Reg.Histogram("serve.queue_seconds", obs.TimeBuckets),
		decodeSeconds: cfg.Reg.Histogram("serve.decode_seconds", obs.TimeBuckets),
		encodeSeconds: cfg.Reg.Histogram("serve.encode_seconds", obs.TimeBuckets),
	}
	s.maxBody = maxBodyBytes(s.inVol, cfg.QueueDepth)
	s.jobs.New = func() any { return new(job) }
	for i := 0; i < cfg.Workers; i++ {
		ex := cfg.Model.NewExecutor(cfg.Compute, cfg.MaxBatch)
		staging := make([]float64, cfg.MaxBatch*s.inVol)
		s.wg.Add(1)
		go s.worker(ex, staging)
	}
	return s, nil
}

// Model returns the served (immutable) model.
func (s *Server) Model() *nn.Int8Model { return s.cfg.Model }

// Classify runs one sample (InVol floats) through the batcher and returns
// its argmax class and logits. It blocks until a worker has run the sample,
// so concurrent callers coalesce into shared batches.
func (s *Server) Classify(x []float64) (Result, error) {
	res, err := s.ClassifyBatch([][]float64{x})
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// ClassifyBatch enqueues every sample before waiting on any of them, so a
// multi-instance request batches with itself as well as with its neighbors.
// The samples are copied into pooled buffers; the returned logits are the
// caller's own.
func (s *Server) ClassifyBatch(xs [][]float64) ([]Result, error) {
	for i, x := range xs {
		if len(x) != s.inVol {
			s.errors.Inc()
			return nil, &lengthError{i, len(x), s.inVol}
		}
	}
	j := s.jobs.Get().(*job)
	defer s.jobs.Put(j)
	for i, x := range xs {
		copy(s.sample(j, i).x, x)
	}
	j.n = len(xs)
	if err := s.run(j); err != nil {
		return nil, err
	}
	out := make([]Result, len(xs))
	logits := make([]float64, len(xs)*s.classes)
	for i, r := range j.reqs[:j.n] {
		row := logits[i*s.classes : (i+1)*s.classes]
		copy(row, r.out)
		out[i] = Result{Class: r.cls, Logits: row}
	}
	return out, nil
}

// run classifies the job's samples and waits until the last has run.
func (s *Server) run(j *job) error {
	// Registering with inflight under the lock guarantees Close drains us:
	// it flips closed first, then waits for inflight before stopping the
	// workers, so every request admitted here is eventually run.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.errors.Inc()
		return ErrClosed
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	defer s.inflight.Done()

	j.start = time.Now()
	reqs := j.reqs[:j.n]
	j.done.Add(len(reqs))
	for _, r := range reqs {
		s.queue <- r
	}
	j.done.Wait()
	sec := time.Since(j.start).Seconds()
	for range reqs {
		s.samples.Inc()
		s.latency.Observe(sec)
	}
	return nil
}

// Close stops the server: new Classify calls fail with ErrClosed, already
// admitted ones complete, then the workers exit. Safe to call twice.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.inflight.Wait()
	close(s.stop)
	s.wg.Wait()
}

// worker pulls samples and runs coalesced batches on its private executor.
func (s *Server) worker(ex *nn.Int8Executor, staging []float64) {
	defer s.wg.Done()
	batch := make([]*request, 0, s.cfg.MaxBatch)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		select {
		case <-s.stop:
			return
		case first := <-s.queue:
			batch = append(batch[:0], first)
			if s.cfg.BatchDeadline > 0 {
				timer.Reset(s.cfg.BatchDeadline)
				for len(batch) < s.cfg.MaxBatch {
					select {
					case r := <-s.queue:
						batch = append(batch, r)
						continue
					case <-timer.C:
					}
					break
				}
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
			} else {
				for len(batch) < s.cfg.MaxBatch {
					select {
					case r := <-s.queue:
						batch = append(batch, r)
						continue
					default:
					}
					break
				}
			}
			s.runBatch(ex, staging, batch)
		}
	}
}

// runBatch copies the samples into the contiguous staging buffer, runs the
// executor once, and scatters logits back to the waiting requests. Each
// sample's wait from its job's start to here is its queue time.
func (s *Server) runBatch(ex *nn.Int8Executor, staging []float64, batch []*request) {
	n := len(batch)
	sp := s.cfg.Rec.StartSpan("serve.batch", obs.Int("batch", n))
	start := time.Now()
	for i, r := range batch {
		s.queueSeconds.Observe(start.Sub(r.job.start).Seconds())
		copy(staging[i*s.inVol:(i+1)*s.inVol], r.x)
	}
	logits := ex.Forward(staging[:n*s.inVol], n)
	for i, r := range batch {
		row := logits[i*s.classes : (i+1)*s.classes]
		copy(r.out, row)
		r.cls = 0
		for j := 1; j < s.classes; j++ {
			if row[j] > row[r.cls] {
				r.cls = j
			}
		}
	}
	// Record the batch before releasing its callers: a caller holding its
	// reply must find its batch in the metrics.
	s.batches.Inc()
	s.batchSize.Observe(float64(n))
	s.batchSeconds.Observe(time.Since(start).Seconds())
	for _, r := range batch {
		r.job.done.Done() // r belongs to its caller from here on
	}
	sp.End()
}

// statusResponse is the GET /status reply.
type statusResponse struct {
	Arch        string  `json:"arch"`
	InShape     []int   `json:"in_shape"`
	Classes     int     `json:"classes"`
	WeightBits  int     `json:"weight_bits"`
	ActBits     int     `json:"act_bits"`
	WeightBytes int64   `json:"weight_bytes"`
	MaxBatch    int     `json:"max_batch"`
	Workers     int     `json:"workers"`
	DeadlineMS  float64 `json:"batch_deadline_ms"`
}

// Handler returns the HTTP surface: POST /classify, GET /status, GET
// /healthz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/classify", s.handleClassify)
	mux.HandleFunc("/status", s.handleStatus)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// jsonContentType is the reply's Content-Type header value, shared so that
// setting it allocates nothing.
var jsonContentType = []string{"application/json"}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	s.requests.Inc()
	j := s.jobs.Get().(*job)
	defer s.jobs.Put(j)
	var err error
	j.body, err = readBody(j.body, http.MaxBytesReader(w, r.Body, s.maxBody), r.ContentLength, s.maxBody)
	if err != nil {
		s.errors.Inc()
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
			j.body = nil // a body at the cap is not worth pooling
		}
		http.Error(w, err.Error(), code)
		return
	}

	start := time.Now()
	j.n, err = decodeInstances(j.body, s.inVol, func(i int) []float64 { return s.sample(j, i).x })
	s.decodeSeconds.Observe(time.Since(start).Seconds())
	if err == nil && j.n == 0 {
		err = errors.New("no instances")
	}
	if err != nil {
		s.errors.Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	sp := s.cfg.Rec.StartSpan("serve.request", obs.Int("instances", j.n))
	err = s.run(j)
	sp.End()
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}

	start = time.Now()
	j.reply, err = appendReply(j.reply[:0], j.reqs[:j.n])
	s.encodeSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		s.errors.Inc()
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	w.Write(j.reply)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	wb, ab := s.cfg.Model.Bits()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(statusResponse{
		Arch:        s.cfg.Model.ArchString(),
		InShape:     s.cfg.Model.InShape(),
		Classes:     s.classes,
		WeightBits:  wb,
		ActBits:     ab,
		WeightBytes: s.cfg.Model.WeightBytes(),
		MaxBatch:    s.cfg.MaxBatch,
		Workers:     s.cfg.Workers,
		DeadlineMS:  float64(s.cfg.BatchDeadline) / float64(time.Millisecond),
	})
}
