package fleetobs

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"solarml/internal/obs"
)

// TestShardedHistogramEquivalence checks the striped histogram merged into
// the registry is identical to a plain histogram that observed every value
// directly — the bit-identity contract for fleet instrumentation.
func TestShardedHistogramEquivalence(t *testing.T) {
	bounds := []float64{1, 10, 100, 1000}
	reg := obs.NewRegistry()
	sh := NewShardedHistogram(reg, "test.hist", bounds, 4)

	serialReg := obs.NewRegistry()
	serial := serialReg.Histogram("serial", bounds)
	var mu sync.Mutex

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				v := float64((w*5000+i)%1500) / 1.3
				sh.Observe(w, v)
				mu.Lock()
				serial.Observe(v)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	got := reg.Snapshot().Histograms["test.hist"]
	ss := sh.Snapshot()
	if ss.Count != 20000 {
		t.Fatalf("striped Count = %d, want 20000", ss.Count)
	}
	if got.Count != ss.Count {
		t.Fatalf("registry Count = %d, striped Count = %d", got.Count, ss.Count)
	}
	for i := range got.Counts {
		if got.Counts[i] != ss.Counts[i] {
			t.Fatalf("bucket %d: registry %d != striped %d", i, got.Counts[i], ss.Counts[i])
		}
	}
	// Against the serially observed twin: per-bucket counts and min/max are
	// exact; the float sum is order-dependent, so allow rounding slack.
	serialSnap := serialReg.Snapshot().Histograms["serial"]
	for i := range got.Counts {
		if got.Counts[i] != serialSnap.Counts[i] {
			t.Fatalf("bucket %d: striped %d != serial %d", i, got.Counts[i], serialSnap.Counts[i])
		}
	}
	if math.Abs(got.Sum-serialSnap.Sum) > 1e-6*math.Abs(serialSnap.Sum) {
		t.Fatalf("Sum diverged: striped %g serial %g", got.Sum, serialSnap.Sum)
	}
	if got.Min != serialSnap.Min || got.Max != serialSnap.Max {
		t.Fatalf("min/max striped (%g,%g) != serial (%g,%g)", got.Min, got.Max, serialSnap.Min, serialSnap.Max)
	}
	if got.Min != ss.Min || got.Max != ss.Max {
		t.Fatalf("min/max registry (%g,%g) != striped (%g,%g)", got.Min, got.Max, ss.Min, ss.Max)
	}
}

// TestShardedHistogramMatchesSerial observes an identical value sequence
// into a striped and a plain histogram and requires identical snapshots.
func TestShardedHistogramMatchesSerial(t *testing.T) {
	bounds := []float64{0.5, 2, 8, 32}
	reg := obs.NewRegistry()
	sh := NewShardedHistogram(reg, "h", bounds, 3)
	plain := reg.Histogram("plain", bounds)
	for i := 0; i < 10000; i++ {
		v := float64(i%97) * 0.42
		sh.Observe(i%3, v)
		plain.Observe(v)
	}
	s := reg.Snapshot()
	a, b := s.Histograms["h"], s.Histograms["plain"]
	// Counts, min, and max are exact; the float Sum accumulates in a
	// different order across stripes, so compare with rounding slack.
	if a.Count != b.Count || a.Min != b.Min || a.Max != b.Max {
		t.Fatalf("striped %+v != serial %+v", a, b)
	}
	if math.Abs(a.Sum-b.Sum) > 1e-9*math.Abs(b.Sum) {
		t.Fatalf("Sum diverged beyond tolerance: %g vs %g", a.Sum, b.Sum)
	}
	for i := range a.Counts {
		if a.Counts[i] != b.Counts[i] {
			t.Fatalf("bucket %d: %d != %d", i, a.Counts[i], b.Counts[i])
		}
	}
}

// TestHotPathAllocs pins the fleet hot path at zero allocations per update.
func TestHotPathAllocs(t *testing.T) {
	h := NewShardedHistogram(nil, "", []float64{1, 10, 100}, 4)
	d := NewDist([]float64{1, 10, 100})
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(2, 42)
		d.Observe(7)
	}); n != 0 {
		t.Fatalf("hot path allocates %v per op, want 0", n)
	}
}

// TestNilInstruments checks nil sharded instruments are safe no-ops, like
// the base obs instruments.
func TestNilInstruments(t *testing.T) {
	var h *ShardedHistogram
	h.Observe(0, 1)
	h.Sync()
	if h.Snapshot().Count != 0 {
		t.Fatal("nil histogram snapshot non-empty")
	}
	var d *Dist
	d.Observe(1)
	if d.Count() != 0 || d.Mean() != 0 {
		t.Fatal("nil dist not empty")
	}
	var in *Inspector
	in.Advance(0, 1, 1)
	in.Finish()
	in.SetAccounts(func() map[string]float64 { return nil })
	if st := in.Status(); st.Done != 0 {
		t.Fatal("nil inspector status non-zero")
	}
}

// TestDist covers observation, quantiles, and CSV output.
func TestDist(t *testing.T) {
	d := NewDist([]float64{10, 20, 30})
	for i := 1; i <= 100; i++ {
		d.Observe(float64(i % 40))
	}
	if d.Count() != 100 {
		t.Fatalf("Count = %d", d.Count())
	}
	s := d.Snapshot()
	if s.Min != 0 || s.Max != 39 {
		t.Fatalf("min/max = %g/%g", s.Min, s.Max)
	}
	p50 := d.Quantile(0.5)
	if p50 < 10 || p50 > 30 {
		t.Fatalf("p50 = %g out of plausible range", p50)
	}
	var buf testWriter
	if err := WriteCSVHeader(&buf); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteCSV(&buf, "interactions"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"dist,stat,le,value", "interactions,bucket,10,", "interactions,bucket,+Inf,", "interactions,p99,,"} {
		if !contains(out, want) {
			t.Fatalf("CSV missing %q in:\n%s", want, out)
		}
	}

	reg := obs.NewRegistry()
	d.PublishTo(reg, "fleet.test")
	hs := reg.Snapshot().Histograms["fleet.test"]
	if hs.Count != 100 {
		t.Fatalf("published Count = %d", hs.Count)
	}
}

type testWriter struct{ b []byte }

func (w *testWriter) Write(p []byte) (int, error) { w.b = append(w.b, p...); return len(p), nil }
func (w *testWriter) String() string              { return string(w.b) }

func contains(s, sub string) bool {
	return len(sub) == 0 || (len(s) >= len(sub) && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestRingDownsamples fills the ring past capacity and checks it compacts
// instead of growing, keeps chronological order, and retains the first point.
func TestRingDownsamples(t *testing.T) {
	r := newRing(8, 0.1)
	for i := 0; i < 1000; i++ {
		r.add(Point{TS: float64(i), Done: int64(i)})
	}
	pts := r.snapshot()
	if len(pts) > 8 {
		t.Fatalf("ring grew past capacity: %d points", len(pts))
	}
	if len(pts) == 0 || pts[0].TS != 0 {
		t.Fatalf("first point lost: %+v", pts)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].TS <= pts[i-1].TS {
			t.Fatalf("non-monotone series at %d: %+v", i, pts)
		}
	}
	// Gap must have widened well past the initial 0.1 s.
	if g := r.add(Point{TS: 1e9}); g <= 0.1 {
		t.Fatalf("gap did not widen: %g", g)
	}
}

// TestRingGapFilter checks points inside the minimum gap are dropped.
func TestRingGapFilter(t *testing.T) {
	r := newRing(64, 1.0)
	r.add(Point{TS: 0})
	r.add(Point{TS: 0.5}) // inside gap — dropped
	r.add(Point{TS: 1.5})
	if n := len(r.snapshot()); n != 2 {
		t.Fatalf("got %d points, want 2", n)
	}
}

// The contention benchmark compares the striped write path against the
// plain obs instruments across worker counts. Each RunParallel goroutine
// claims a distinct stripe, matching how fleetPool chunks map to stripes.
func BenchmarkShardedHistogramContention(b *testing.B) {
	bounds := obs.TimeBuckets
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("sharded/stripes=%d", workers), func(b *testing.B) {
			h := NewShardedHistogram(nil, "", bounds, workers)
			var next atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				w := int(next.Add(1) - 1)
				for pb.Next() {
					h.Observe(w, 0.003)
				}
			})
		})
	}
	b.Run("plain-mutex", func(b *testing.B) {
		h := obs.NewRegistry().Histogram("h", bounds)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				h.Observe(0.003)
			}
		})
	})
}
