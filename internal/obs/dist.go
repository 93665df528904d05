package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Dist counts observations into fixed buckets. Bucket i counts values
// v ≤ bounds[i] that exceed every lower bound (cumulative "le" semantics
// per bucket edge, like Prometheus); one overflow bucket catches the rest.
//
// Dist is the one fixed-bucket body in the repository: a single-writer
// value of flat arrays that allocates nothing per observation, so a fleet's
// aggregation loop can feed one value per device into it. Histogram is the
// same body behind a mutex. The zero Dist ignores observations; construct
// with NewDist.
type Dist struct {
	bounds []float64
	counts []uint64
	count  uint64
	sum    float64
	min    float64
	max    float64
}

// NewDist returns a distribution over the given upper bucket bounds
// (copied, sorted defensively) plus one overflow bucket.
func NewDist(bounds []float64) Dist {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return Dist{
		bounds: b,
		counts: make([]uint64, len(b)+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// Observe records one value. Allocation-free.
func (d *Dist) Observe(v float64) {
	if d == nil || d.counts == nil {
		return
	}
	i := sort.SearchFloat64s(d.bounds, v) // first bound ≥ v
	d.counts[i]++
	d.count++
	d.sum += v
	if v < d.min {
		d.min = v
	}
	if v > d.max {
		d.max = v
	}
}

// Merge folds a snapshot into the distribution: per-bucket counts, total
// count, and sum are added, min/max are widened. The snapshot's bounds must
// match the distribution's (same values, same order); mismatches are
// dropped rather than corrupting buckets. Merging the snapshots of several
// distributions over the same bounds yields the distribution that observed
// every value directly (the float sum up to addition order).
func (d *Dist) Merge(s HistogramSnapshot) {
	if d == nil || s.Count == 0 {
		return
	}
	if len(s.Bounds) != len(d.bounds) || len(s.Counts) != len(d.counts) {
		return
	}
	for i, b := range s.Bounds {
		if b != d.bounds[i] {
			return
		}
	}
	for i, c := range s.Counts {
		d.counts[i] += c
	}
	d.count += s.Count
	d.sum += s.Sum
	if s.Min < d.min {
		d.min = s.Min
	}
	if s.Max > d.max {
		d.max = s.Max
	}
}

// Count returns the number of observations.
func (d *Dist) Count() uint64 {
	if d == nil {
		return 0
	}
	return d.count
}

// Snapshot exports the distribution. Min, Max, and Mean stay zero while it
// is empty.
func (d *Dist) Snapshot() HistogramSnapshot {
	if d == nil || d.counts == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), d.bounds...),
		Counts: append([]uint64(nil), d.counts...),
		Count:  d.count,
		Sum:    d.sum,
	}
	if d.count > 0 {
		s.Mean = d.sum / float64(d.count)
		s.Min, s.Max = d.min, d.max
	}
	return s
}

// Quantile estimates the p-quantile; see HistogramSnapshot.Quantile.
func (d *Dist) Quantile(p float64) float64 { return d.Snapshot().Quantile(p) }

// PublishTo merges the distribution into the named registry histogram, so
// it lands in metrics snapshots, /metrics scrapes, and recorded traces.
// Call once per run (Merge adds; repeated calls double-count).
func (d *Dist) PublishTo(reg *Registry, name string) {
	if d == nil || reg == nil || d.count == 0 {
		return
	}
	reg.Histogram(name, d.bounds).Merge(d.Snapshot())
}

// WriteCSV appends the distribution as machine-readable rows under the
// given series name: one row per bucket edge plus count/mean/min/max and
// the p50/p95/p99 quantiles. Callers writing several distributions into one
// file write the header once via WriteDistCSVHeader.
func (d *Dist) WriteCSV(w io.Writer, name string) error {
	if d == nil || d.counts == nil {
		return nil
	}
	for i, c := range d.counts {
		le := "+Inf"
		if i < len(d.bounds) {
			le = fmt.Sprintf("%g", d.bounds[i])
		}
		if _, err := fmt.Fprintf(w, "%s,bucket,%s,%d\n", name, le, c); err != nil {
			return err
		}
	}
	s := d.Snapshot()
	for _, row := range []struct {
		stat string
		v    float64
	}{
		{"count", float64(s.Count)},
		{"mean", s.Mean},
		{"min", s.Min},
		{"max", s.Max},
		{"p50", s.Quantile(0.50)},
		{"p95", s.Quantile(0.95)},
		{"p99", s.Quantile(0.99)},
	} {
		if _, err := fmt.Fprintf(w, "%s,%s,,%g\n", name, row.stat, row.v); err != nil {
			return err
		}
	}
	return nil
}

// WriteDistCSVHeader writes the column header Dist.WriteCSV rows follow.
func WriteDistCSVHeader(w io.Writer) error {
	_, err := fmt.Fprintln(w, "dist,stat,le,value")
	return err
}
