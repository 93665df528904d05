package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

// TestRegistryConcurrency hammers one registry from many goroutines; run
// with -race this doubles as the data-race check for the instruments and
// the snapshot path.
func TestRegistryConcurrency(t *testing.T) {
	g := NewRegistry()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := g.Counter("evals")
			ga := g.Gauge("util")
			h := g.Histogram("lat", TimeBuckets)
			for i := 0; i < perWorker; i++ {
				c.Inc()
				ga.Set(float64(i))
				h.Observe(float64(i%10) * 1e-4)
				if i%100 == 0 {
					_ = g.Snapshot() // concurrent reads
				}
			}
		}(w)
	}
	wg.Wait()
	if got := g.Counter("evals").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	s := g.Snapshot()
	if s.Histograms["lat"].Count != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", s.Histograms["lat"].Count, workers*perWorker)
	}
}

// TestHistogramBucketEdges pins the "value ≤ bound" bucket semantics at the
// exact edges.
func TestHistogramBucketEdges(t *testing.T) {
	g := NewRegistry()
	h := g.Histogram("h", []float64{1, 2, 5})
	for _, v := range []float64{0, 1, 1.0000001, 2, 2.5, 5, 5.0001, 100} {
		h.Observe(v)
	}
	s := g.Snapshot().Histograms["h"]
	// buckets: ≤1, ≤2, ≤5, overflow
	want := []uint64{2, 2, 2, 2}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 8 {
		t.Errorf("count = %d, want 8", s.Count)
	}
	if s.Min != 0 || s.Max != 100 {
		t.Errorf("min/max = %v/%v, want 0/100", s.Min, s.Max)
	}
	if math.Abs(s.Mean-s.Sum/8) > 1e-12 {
		t.Errorf("mean = %v, want %v", s.Mean, s.Sum/8)
	}
}

// TestHistogramObserveExactBounds pins Observe at exactly each bucket
// boundary: a value equal to a bound lands in that bound's bucket (≤
// semantics), never the next one — the invariant the Prometheus exposition
// and obs-report's latency rollups both rely on.
func TestHistogramObserveExactBounds(t *testing.T) {
	bounds := []float64{0, 0.5, 1, 2}
	g := NewRegistry()
	h := g.Histogram("edge", bounds)
	for _, b := range bounds {
		h.Observe(b)
		h.Observe(b)
	}
	h.Observe(-1)          // below the lowest bound → first bucket
	h.Observe(math.Inf(1)) // above the highest → overflow bucket
	s := g.Snapshot().Histograms["edge"]
	want := []uint64{3, 2, 2, 2, 1} // per-bucket (non-cumulative) counts
	if len(s.Counts) != len(want) {
		t.Fatalf("counts len = %d, want %d", len(s.Counts), len(want))
	}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 10 {
		t.Errorf("count = %d, want 10", s.Count)
	}
	if s.Min != -1 || !math.IsInf(s.Max, 1) {
		t.Errorf("min/max = %v/%v, want -1/+Inf", s.Min, s.Max)
	}
}

// TestHistogramUnsortedBounds checks that bounds are sorted on creation.
func TestHistogramUnsortedBounds(t *testing.T) {
	g := NewRegistry()
	h := g.Histogram("h", []float64{5, 1, 2})
	h.Observe(1.5)
	s := g.Snapshot().Histograms["h"]
	if s.Bounds[0] != 1 || s.Bounds[2] != 5 {
		t.Fatalf("bounds not sorted: %v", s.Bounds)
	}
	if s.Counts[1] != 1 {
		t.Fatalf("1.5 should land in the ≤2 bucket: %v", s.Counts)
	}
}

// TestNilRegistry checks the whole nil no-op surface.
func TestNilRegistry(t *testing.T) {
	var g *Registry
	g.Counter("c").Inc()
	g.Gauge("g").Set(3)
	g.Histogram("h", TimeBuckets).Observe(1)
	if v := g.Counter("c").Value(); v != 0 {
		t.Fatalf("nil counter value = %d", v)
	}
	if s := g.Snapshot(); s.Counters != nil || s.Histograms != nil {
		t.Fatalf("nil snapshot not empty: %+v", s)
	}
}

// TestSnapshotJSON round-trips a snapshot through WriteJSON.
func TestSnapshotJSON(t *testing.T) {
	g := NewRegistry()
	g.Counter("a").Add(3)
	g.Gauge("b").Set(0.5)
	g.Histogram("c", []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["a"] != 3 || s.Gauges["b"] != 0.5 || s.Histograms["c"].Count != 1 {
		t.Fatalf("round-trip mismatch: %+v", s)
	}
}

// TestHistogramMerge checks bulk merge equals direct observation and that
// bound-mismatched snapshots are rejected rather than corrupting buckets.
func TestHistogramMerge(t *testing.T) {
	bounds := []float64{1, 10, 100}
	g := NewRegistry()
	direct := g.Histogram("direct", bounds)
	merged := g.Histogram("merged", bounds)
	values := []float64{0.5, 3, 3, 42, 250}
	for _, v := range values {
		direct.Observe(v)
	}
	other := NewRegistry()
	src := other.Histogram("src", bounds)
	for _, v := range values {
		src.Observe(v)
	}
	merged.Merge(other.Snapshot().Histograms["src"])
	s := g.Snapshot()
	d, m := s.Histograms["direct"], s.Histograms["merged"]
	if d.Count != m.Count || d.Sum != m.Sum || d.Min != m.Min || d.Max != m.Max {
		t.Fatalf("merge drifted from direct observation:\ndirect %+v\nmerged %+v", d, m)
	}
	for i := range d.Counts {
		if d.Counts[i] != m.Counts[i] {
			t.Fatalf("bucket %d: direct %d, merged %d", i, d.Counts[i], m.Counts[i])
		}
	}
	// Mismatched bounds must be dropped whole.
	bad := other.Histogram("bad", []float64{2, 20})
	bad.Observe(5)
	merged.Merge(other.Snapshot().Histograms["bad"])
	if got := g.Snapshot().Histograms["merged"]; got.Count != m.Count {
		t.Fatalf("bound-mismatched merge was applied: %+v", got)
	}
	var nilHist *Histogram
	nilHist.Merge(d) // must not panic
}

// TestHistogramSnapshotQuantile checks the interpolated quantiles against a
// hand-computed distribution.
func TestHistogramSnapshotQuantile(t *testing.T) {
	g := NewRegistry()
	h := g.Histogram("q", []float64{10, 20, 30})
	// 10 values in (0,10], 80 in (10,20], 10 in (20,30].
	for i := 0; i < 10; i++ {
		h.Observe(5)
	}
	for i := 0; i < 80; i++ {
		h.Observe(15)
	}
	for i := 0; i < 10; i++ {
		h.Observe(25)
	}
	s := g.Snapshot().Histograms["q"]
	if q := s.Quantile(0.5); q < 10 || q > 20 {
		t.Fatalf("p50 = %v, want inside (10, 20]", q)
	}
	if q := s.Quantile(0.99); q < 20 || q > 30 {
		t.Fatalf("p99 = %v, want inside (20, 30]", q)
	}
	if q := s.Quantile(0); q != s.Min {
		t.Fatalf("p0 = %v, want min %v", q, s.Min)
	}
	if q := s.Quantile(1); q != s.Max {
		t.Fatalf("p100 = %v, want max %v", q, s.Max)
	}
	if !math.IsNaN((HistogramSnapshot{}).Quantile(0.5)) {
		t.Fatal("empty snapshot quantile must be NaN")
	}
	if !math.IsNaN(s.Quantile(1.5)) {
		t.Fatal("out-of-range p must be NaN")
	}
	// Overflow-bucket quantile stays clamped to the observed max.
	h.Observe(1e6)
	s = g.Snapshot().Histograms["q"]
	if q := s.Quantile(0.999); q > s.Max {
		t.Fatalf("overflow quantile %v exceeds max %v", q, s.Max)
	}
}
