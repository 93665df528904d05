package obs

import (
	"strings"
	"testing"
)

// TestDist covers observation, quantiles, CSV output, and publication.
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
	var buf strings.Builder
	if err := WriteDistCSVHeader(&buf); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteCSV(&buf, "interactions"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"dist,stat,le,value", "interactions,bucket,10,", "interactions,bucket,+Inf,", "interactions,p99,,"} {
		if !strings.Contains(out, want) {
			t.Fatalf("CSV missing %q in:\n%s", want, out)
		}
	}

	reg := NewRegistry()
	d.PublishTo(reg, "fleet.test")
	hs := reg.Snapshot().Histograms["fleet.test"]
	if hs.Count != 100 {
		t.Fatalf("published Count = %d", hs.Count)
	}
}

// TestNilDist checks nil and zero distributions are safe no-ops.
func TestNilDist(t *testing.T) {
	var d *Dist
	d.Observe(1)
	d.Merge(HistogramSnapshot{Count: 1, Bounds: []float64{1}, Counts: []uint64{1, 0}})
	if d.Count() != 0 || d.Snapshot().Count != 0 {
		t.Fatal("nil dist not empty")
	}
	var zero Dist
	zero.Observe(1)
	if zero.Count() != 0 {
		t.Fatal("zero dist counted an observation")
	}
	if err := zero.WriteCSV(&strings.Builder{}, "x"); err != nil {
		t.Fatal(err)
	}
}

// TestDistObserveZeroAlloc pins the per-observation path at zero
// allocations, for the bare distribution and behind the histogram mutex.
func TestDistObserveZeroAlloc(t *testing.T) {
	d := NewDist([]float64{1, 10, 100})
	h := NewHistogram([]float64{1, 10, 100})
	if n := testing.AllocsPerRun(1000, func() {
		d.Observe(7)
		h.Observe(42)
	}); n != 0 {
		t.Fatalf("Observe allocates %v per op, want 0", n)
	}
}

// TestGaugeAdd checks concurrent adds on one gauge lose nothing.
func TestGaugeAdd(t *testing.T) {
	var g Gauge
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			for i := 0; i < 1000; i++ {
				g.Add(0.5)
			}
			done <- struct{}{}
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if got := g.Value(); got != 2000 {
		t.Fatalf("Value = %g, want 2000", got)
	}
	var nilG *Gauge
	nilG.Add(1)
}
