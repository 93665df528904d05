// Package fleetobs is the fleet-scale telemetry substrate: instruments
// built for 10⁵–10⁷ simulated devices publishing from many workers at once.
//
// The single-device obs instruments are correct at fleet scale but slow:
// every worker lands on the same atomic counter cache line (or the same
// histogram mutex), so a fleet loop spends its time in CAS retries and
// cache-line ping-pong instead of simulation. This package splits the write
// and read sides:
//
//   - Writes are striped per worker. Each worker owns a cache-line-padded
//     stripe and updates it with an uncontended atomic — no locks, no
//     allocations, no shared lines.
//   - Reads sum the stripes. Sharded instruments register a sum-and-publish
//     hook in the obs.Registry via OnSnapshot, so every consumer of the
//     registry — a Prometheus scrape, the periodic sampler, the final
//     metrics flush — sees exact totals without the writers ever paying for
//     publication.
//
// The package also carries the fleet read-side tools: Dist, a fixed-bucket
// distribution for per-device aggregates (no per-device allocation), and
// Inspector, the /debug/fleet live run endpoint backed by a bounded
// downsampling time-series ring.
package fleetobs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"solarml/internal/obs"
)

// cacheLine is the assumed coherence granule. Stripes are padded to it so
// two workers never share a line.
const cacheLine = 64

// atomicFloat is a float64 updated through CAS on its bits. In striped use
// each value has a single writer, so the CAS succeeds on the first attempt;
// the atomicity is what keeps concurrent read-side sums race-free.
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) add(d float64) {
	for {
		old := a.bits.Load()
		if a.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

func (a *atomicFloat) setMin(v float64) {
	for {
		old := a.bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if a.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (a *atomicFloat) setMax(v float64) {
	for {
		old := a.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if a.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (a *atomicFloat) load() float64   { return math.Float64frombits(a.bits.Load()) }
func (a *atomicFloat) store(v float64) { a.bits.Store(math.Float64bits(v)) }

// histStripe is one worker's share of a ShardedHistogram. The fields are
// updated with uncontended atomics; the counts slice is a separate
// allocation, so stripes do not share lines.
type histStripe struct {
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomicFloat
	min    atomicFloat
	max    atomicFloat
}

// ShardedHistogram counts observations into fixed buckets, striped across
// workers: Observe touches only the worker's own stripe, lock-free, and the
// read side merges stripes into the registry histogram (delta-published, so
// the merged histogram is identical to one that observed every value
// directly). A nil *ShardedHistogram is a valid no-op.
type ShardedHistogram struct {
	bounds  []float64
	stripes []*histStripe
	sink    *obs.Histogram

	mu  sync.Mutex
	pub obs.HistogramSnapshot
}

// NewShardedHistogram returns a histogram with the given upper bucket
// bounds (sorted defensively) and stripe count. With a non-nil registry it
// registers under name and keeps the registry histogram current on every
// snapshot.
func NewShardedHistogram(reg *obs.Registry, name string, bounds []float64, stripes int) *ShardedHistogram {
	if stripes < 1 {
		stripes = 1
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	h := &ShardedHistogram{bounds: b, stripes: make([]*histStripe, stripes)}
	for i := range h.stripes {
		s := &histStripe{counts: make([]atomic.Uint64, len(b)+1)}
		s.min.store(math.Inf(1))
		s.max.store(math.Inf(-1))
		h.stripes[i] = s
	}
	if reg != nil {
		h.sink = reg.Histogram(name, b)
		h.pub = obs.HistogramSnapshot{Counts: make([]uint64, len(b)+1)}
		reg.OnSnapshot(h.Sync)
	}
	return h
}

// Observe records one value on worker w's stripe.
func (h *ShardedHistogram) Observe(w int, v float64) {
	if h == nil {
		return
	}
	s := h.stripes[uint(w)%uint(len(h.stripes))]
	i := sort.SearchFloat64s(h.bounds, v)
	s.counts[i].Add(1)
	s.count.Add(1)
	s.sum.add(v)
	s.min.setMin(v)
	s.max.setMax(v)
}

// Snapshot sums the stripes into one exported histogram state.
func (h *ShardedHistogram) Snapshot() obs.HistogramSnapshot {
	if h == nil {
		return obs.HistogramSnapshot{}
	}
	out := obs.HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.bounds)+1),
		Min:    math.Inf(1),
		Max:    math.Inf(-1),
	}
	for _, s := range h.stripes {
		for i := range out.Counts {
			out.Counts[i] += s.counts[i].Load()
		}
		out.Count += s.count.Load()
		out.Sum += s.sum.load()
		if v := s.min.load(); v < out.Min {
			out.Min = v
		}
		if v := s.max.load(); v > out.Max {
			out.Max = v
		}
	}
	if out.Count > 0 {
		out.Mean = out.Sum / float64(out.Count)
	} else {
		out.Min, out.Max = 0, 0
	}
	return out
}

// Sync merges the striped state into the registry histogram as a delta.
// Runs automatically on every registry snapshot.
func (h *ShardedHistogram) Sync() {
	if h == nil || h.sink == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	cur := h.Snapshot()
	delta := obs.HistogramSnapshot{
		Bounds: cur.Bounds,
		Counts: make([]uint64, len(cur.Counts)),
		Count:  cur.Count - h.pub.Count,
		Sum:    cur.Sum - h.pub.Sum,
		Min:    cur.Min,
		Max:    cur.Max,
	}
	if delta.Count == 0 {
		return
	}
	for i := range delta.Counts {
		delta.Counts[i] = cur.Counts[i] - h.pub.Counts[i]
	}
	h.sink.Merge(delta)
	h.pub.Count, h.pub.Sum = cur.Count, cur.Sum
	copy(h.pub.Counts, cur.Counts)
}
