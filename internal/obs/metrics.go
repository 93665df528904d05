package obs

import (
	"encoding/json"
	"expvar"
	"io"
	"math"
	"sync"
	"sync/atomic"
)

// Registry is a concurrency-safe metrics registry. A nil *Registry is a
// valid no-op: every lookup returns a nil instrument whose methods do
// nothing, so instrumented code needs no guards. Instruments are cheap to
// look up but hot loops should resolve them once up front — the instruments
// themselves update lock-free (counters, gauges) or under a short mutex
// (histograms).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (g *Registry) Counter(name string) *Counter {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	c, ok := g.counters[name]
	if !ok {
		c = &Counter{}
		g.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (g *Registry) Gauge(name string) *Gauge {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	v, ok := g.gauges[name]
	if !ok {
		v = &Gauge{}
		g.gauges[name] = v
	}
	return v
}

// Histogram returns the named histogram, creating it with the given upper
// bucket bounds on first use (bounds are sorted; later calls may pass nil).
func (g *Registry) Histogram(name string, bounds []float64) *Histogram {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	h, ok := g.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		g.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing integer.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the stored value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Add adds d to the stored value. It is a compare-and-swap loop on the
// float bits; with one writer per gauge at a time, as in the fleet
// inspector's lanes and a fleet ledger folded under one mutex, the first
// attempt succeeds. The atomicity is what keeps concurrent readers
// race-free.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Histogram is a Dist behind a mutex, safe for concurrent observers.
type Histogram struct {
	mu sync.Mutex
	d  Dist
}

// NewHistogram returns an unregistered histogram over the given upper
// bucket bounds (copied and sorted); Registry.Histogram registers one.
func NewHistogram(bounds []float64) *Histogram { return &Histogram{d: NewDist(bounds)} }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.d.Observe(v)
	h.mu.Unlock()
}

// Merge folds a snapshot into the histogram; see Dist.Merge. This is the
// bulk-publication path for per-device distributions and folded energy
// books.
func (h *Histogram) Merge(s HistogramSnapshot) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.d.Merge(s)
	h.mu.Unlock()
}

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.d.Snapshot()
}

// HistogramSnapshot is the exported state of one histogram. Counts has one
// entry per bound plus a final overflow bucket.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Mean   float64   `json:"mean"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
}

// Quantile estimates the p-quantile (p ∈ [0, 1]) from the bucket counts by
// linear interpolation inside the bucket holding the target rank. The first
// bucket interpolates up from Min, the overflow bucket toward Max, and the
// result is clamped to [Min, Max] — so p50/p95/p99 over a fleet's
// per-device distributions are exact at bucket edges and sensible inside.
// Returns NaN for an empty snapshot or a p outside [0, 1].
func (s HistogramSnapshot) Quantile(p float64) float64 {
	if s.Count == 0 || p < 0 || p > 1 || len(s.Counts) != len(s.Bounds)+1 {
		return math.NaN()
	}
	rank := p * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next {
			lo := s.Min
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Max
			if i < len(s.Bounds) && s.Bounds[i] < hi {
				hi = s.Bounds[i]
			}
			if lo > hi {
				lo = hi
			}
			frac := 0.0
			if c > 0 {
				frac = (rank - cum) / float64(c)
			}
			v := lo + frac*(hi-lo)
			return math.Min(math.Max(v, s.Min), s.Max)
		}
		cum = next
	}
	return s.Max
}

// Snapshot is a point-in-time copy of a registry, ready for JSON export.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry state. A nil registry yields a zero
// snapshot.
func (g *Registry) Snapshot() Snapshot {
	var s Snapshot
	if g == nil {
		return s
	}
	g.mu.Lock()
	counters := make(map[string]*Counter, len(g.counters))
	for k, v := range g.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(g.gauges))
	for k, v := range g.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(g.hists))
	for k, v := range g.hists {
		hists[k] = v
	}
	g.mu.Unlock()

	if len(counters) > 0 {
		s.Counters = make(map[string]int64, len(counters))
		for k, c := range counters {
			s.Counters[k] = c.Value()
		}
	}
	if len(gauges) > 0 {
		s.Gauges = make(map[string]float64, len(gauges))
		for k, v := range gauges {
			s.Gauges[k] = v.Value()
		}
	}
	if len(hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(hists))
		for k, h := range hists {
			s.Histograms[k] = h.Snapshot()
		}
	}
	return s
}

// WriteJSON writes an indented snapshot of the registry to w.
func (g *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(g.Snapshot())
}

// PublishExpvar exposes the registry under the given expvar name (served on
// /debug/vars alongside net/http/pprof). expvar panics on duplicate names,
// so call this once per process.
func (g *Registry) PublishExpvar(name string) {
	if g == nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return g.Snapshot() }))
}

// TimeBuckets are the default histogram bounds for durations in seconds,
// spanning microsecond evaluations to multi-minute searches.
var TimeBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 25e-3, 0.1, 0.5, 1, 5, 25, 100,
}

// RatioBuckets are the default histogram bounds for fractions in [0, 1]
// (for example worker-pool utilization).
var RatioBuckets = []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.0}
