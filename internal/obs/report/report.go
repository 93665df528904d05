// Package report is the read side of the obs telemetry layer: it
// reconstructs the span tree from a JSONL trace, attributes wall-clock time
// to span names and subsystems (the "enas." / "evo." / "nas." / "nn." /
// "compute." prefixes the instrumented layers emit), extracts the
// cache/pool efficiency ratios from metrics snapshots, and exports the
// whole run as Perfetto/Chrome trace-event JSON or flamegraph folded
// stacks. cmd/obs-report is the CLI over this package.
//
// The reader is deliberately forgiving: it consumes whatever obs.ScanTrace
// salvages from a trace — including traces from crashed runs with a
// truncated final line, spans whose parent never ended, or event kinds from
// a newer writer — and reports what it skipped instead of failing.
package report

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"solarml/internal/obs"
)

// Span is one reconstructed timed region. Start/End are seconds since the
// trace start (the recorder's clock); SelfMS is the span's duration minus
// the sum of its children's durations, clamped at zero (parallel children
// can overlap their parent's wall clock).
type Span struct {
	Name   string
	ID     uint64
	Parent uint64
	Start  float64
	End    float64
	DurMS  float64
	SelfMS float64
	// EnergyUJ is the energy attributed directly to this span (its
	// energy_uj attribute); SubtreeUJ adds every descendant's. The two
	// have inverse semantics to DurMS/SelfMS: writers charge each span
	// only its own joules, so the report sums subtrees, whereas durations
	// include children and the report subtracts them out.
	EnergyUJ  float64
	SubtreeUJ float64
	Depth     int
	Attrs     map[string]any
	Children  []*Span
}

// Subsystem returns the span's name prefix up to the first dot —
// "enas.eval_batch" → "enas" — the unit the per-phase breakdown groups by.
func (s *Span) Subsystem() string { return subsystem(s.Name) }

func subsystem(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// Trace is a fully reconstructed run.
type Trace struct {
	// Manifest and Finish are the head and tail events (nil when the trace
	// was truncated before they were written).
	Manifest *obs.Event
	Finish   *obs.Event
	// Spans holds every span in trace order; Roots the top-level trees
	// (spans with no recorded parent), ordered by start time.
	Spans []*Span
	Roots []*Span
	// Events are the point-in-time emissions (kind "event").
	Events []obs.Event
	// Metrics are the snapshot events in trace order — a time series when
	// an obs.Sampler was attached, a single terminal snapshot otherwise.
	Metrics []obs.Event
	// SkippedLines counts unparseable JSONL lines; UnknownKinds counts
	// well-formed events whose kind this version does not understand.
	SkippedLines int
	UnknownKinds int
}

// ReadFile loads and reconstructs a trace from a JSONL file.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// Read reconstructs a trace from JSONL.
func Read(r io.Reader) (*Trace, error) {
	events, skipped, err := obs.ScanTrace(r)
	if err != nil {
		return nil, err
	}
	tr := FromEvents(events)
	tr.SkippedLines = skipped
	return tr, nil
}

// FromEvents reconstructs a trace from already-decoded events (for
// in-process use, e.g. over a subscriber's capture).
func FromEvents(events []obs.Event) *Trace {
	tr := &Trace{}
	byID := make(map[uint64]*Span)
	for i := range events {
		e := events[i]
		switch e.Kind {
		case obs.KindManifest:
			if tr.Manifest == nil {
				tr.Manifest = &events[i]
			}
		case obs.KindFinish:
			tr.Finish = &events[i]
		case obs.KindEvent:
			tr.Events = append(tr.Events, e)
		case obs.KindMetrics:
			tr.Metrics = append(tr.Metrics, e)
		case obs.KindSpan:
			sp := &Span{
				Name:     e.Name,
				ID:       e.Span,
				Parent:   e.Parent,
				Start:    e.T - e.DurMS/1e3,
				End:      e.T,
				DurMS:    e.DurMS,
				EnergyUJ: e.Float(obs.AttrEnergyUJ),
				Attrs:    e.Attrs,
			}
			tr.Spans = append(tr.Spans, sp)
			if sp.ID != 0 {
				byID[sp.ID] = sp
			}
		default:
			tr.UnknownKinds++
		}
	}
	// Spans are emitted at End, so children precede parents in the stream;
	// link after the full pass. A span whose parent never emitted (still
	// open when the process died) becomes a root.
	for _, sp := range tr.Spans {
		if p := byID[sp.Parent]; sp.Parent != 0 && p != nil && p != sp {
			p.Children = append(p.Children, sp)
		} else {
			tr.Roots = append(tr.Roots, sp)
		}
	}
	sort.SliceStable(tr.Roots, func(i, j int) bool { return tr.Roots[i].Start < tr.Roots[j].Start })
	for _, root := range tr.Roots {
		finish(root, 0)
	}
	return tr
}

// finish orders children, computes self time and subtree energy, and
// assigns depth.
func finish(sp *Span, depth int) {
	sp.Depth = depth
	sort.SliceStable(sp.Children, func(i, j int) bool { return sp.Children[i].Start < sp.Children[j].Start })
	var childMS float64
	sp.SubtreeUJ = sp.EnergyUJ
	for _, c := range sp.Children {
		childMS += c.DurMS
		finish(c, depth+1)
		sp.SubtreeUJ += c.SubtreeUJ
	}
	sp.SelfMS = math.Max(0, sp.DurMS-childMS)
}

// MainRoot returns the longest top-level span — for a search trace, the
// <algo>.search span — or nil for a span-less trace.
func (t *Trace) MainRoot() *Span {
	var best *Span
	for _, r := range t.Roots {
		if best == nil || r.DurMS > best.DurMS {
			best = r
		}
	}
	return best
}

// Tool returns the manifest's tool name ("" when the manifest is missing).
func (t *Trace) Tool() string {
	if t.Manifest == nil {
		return ""
	}
	return t.Manifest.Name
}

// Outcome returns the finish event's outcome, or "(no finish event)" for a
// truncated trace — the signal that a run died before its deferred Finish.
func (t *Trace) Outcome() string {
	if t.Finish == nil {
		return "(no finish event)"
	}
	return t.Finish.Str("outcome")
}

// WallMS estimates the run's wall clock: the finish event's duration when
// present, otherwise the latest span end seen.
func (t *Trace) WallMS() float64 {
	if t.Finish != nil && t.Finish.DurMS > 0 {
		return t.Finish.DurMS
	}
	var last float64
	for _, sp := range t.Spans {
		if sp.End > last {
			last = sp.End
		}
	}
	return last * 1e3
}

// NameStat is the rollup for one span name.
type NameStat struct {
	Name    string
	Count   int
	TotalMS float64
	SelfMS  float64
	MinMS   float64
	MaxMS   float64
	P50MS   float64
	P95MS   float64
}

// Rollup aggregates every span by name: count, total and self wall time,
// min/max and p50/p95 of the recorded durations. Sorted by total time,
// descending.
func (t *Trace) Rollup() []NameStat {
	byName := make(map[string]*NameStat)
	durs := make(map[string][]float64)
	for _, sp := range t.Spans {
		st := byName[sp.Name]
		if st == nil {
			st = &NameStat{Name: sp.Name, MinMS: math.Inf(1)}
			byName[sp.Name] = st
		}
		st.Count++
		st.TotalMS += sp.DurMS
		st.SelfMS += sp.SelfMS
		st.MinMS = math.Min(st.MinMS, sp.DurMS)
		st.MaxMS = math.Max(st.MaxMS, sp.DurMS)
		durs[sp.Name] = append(durs[sp.Name], sp.DurMS)
	}
	out := make([]NameStat, 0, len(byName))
	for name, st := range byName {
		d := durs[name]
		sort.Float64s(d)
		st.P50MS = percentile(d, 0.50)
		st.P95MS = percentile(d, 0.95)
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalMS != out[j].TotalMS {
			return out[i].TotalMS > out[j].TotalMS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// percentile returns the nearest-rank percentile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// PhaseStat attributes self time to one subsystem (span-name prefix).
type PhaseStat struct {
	Phase   string
	Spans   int
	SelfMS  float64
	TotalMS float64
}

// Phases breaks wall-clock attribution down by subsystem prefix. Self times
// partition each span tree exactly (every millisecond of a root span lands
// in exactly one span's self time), so with serial execution the phase self
// times sum to the root durations; parallel children can push the sum above
// wall clock, which the summary reports as coverage.
func (t *Trace) Phases() []PhaseStat {
	byPhase := make(map[string]*PhaseStat)
	for _, sp := range t.Spans {
		key := sp.Subsystem()
		ph := byPhase[key]
		if ph == nil {
			ph = &PhaseStat{Phase: key}
			byPhase[key] = ph
		}
		ph.Spans++
		ph.SelfMS += sp.SelfMS
		ph.TotalMS += sp.DurMS
	}
	out := make([]PhaseStat, 0, len(byPhase))
	for _, ph := range byPhase {
		out = append(out, *ph)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMS != out[j].SelfMS {
			return out[i].SelfMS > out[j].SelfMS
		}
		return out[i].Phase < out[j].Phase
	})
	return out
}

// PhaseSelfTotalMS sums self time across all phases — the numerator of the
// coverage check against the root span duration.
func (t *Trace) PhaseSelfTotalMS() float64 {
	var total float64
	for _, ph := range t.Phases() {
		total += ph.SelfMS
	}
	return total
}

// RootTotalMS sums the durations of all top-level spans — the wall clock
// the span trees claim. Self times across the trace sum to exactly this
// when no parallel children overflow their parents.
func (t *Trace) RootTotalMS() float64 {
	var total float64
	for _, r := range t.Roots {
		total += r.DurMS
	}
	return total
}

// CriticalPath walks from the main root down through the longest child at
// each level — where an optimization pass should look first.
func (t *Trace) CriticalPath() []*Span {
	var path []*Span
	for sp := t.MainRoot(); sp != nil; {
		path = append(path, sp)
		var next *Span
		for _, c := range sp.Children {
			if next == nil || c.DurMS > next.DurMS {
				next = c
			}
		}
		sp = next
	}
	return path
}

// Ratio is one derived efficiency figure from the metrics snapshots.
type Ratio struct {
	Name   string
	Hits   int64
	Misses int64
}

// Rate returns hits/(hits+misses), NaN when nothing was counted.
func (r Ratio) Rate() float64 {
	if r.Hits+r.Misses == 0 {
		return math.NaN()
	}
	return float64(r.Hits) / float64(r.Hits+r.Misses)
}

// Efficiency is the derived read of the metrics snapshots: cache and arena
// hit ratios, and the GEMM time the compute backend accounted for.
type Efficiency struct {
	// EvoCache is the evaluation memo (evo.cache_hits/_misses); Arena the
	// candidate networks' step-arena buffer reuse (nn.arena_hits/_misses).
	EvoCache Ratio
	Arena    Ratio
	// GEMMCount and GEMMSeconds summarize the compute.gemm_seconds
	// histogram from the last snapshot.
	GEMMCount   uint64
	GEMMSeconds float64
	// Counters is the last snapshot's full counter set for ad-hoc reads.
	Counters map[string]int64
}

// lastMetrics returns the final metrics snapshot's attribute maps.
func (t *Trace) lastMetrics() (counters map[string]any, hists map[string]any) {
	if len(t.Metrics) == 0 {
		return nil, nil
	}
	last := t.Metrics[len(t.Metrics)-1]
	counters, _ = last.Attrs["counters"].(map[string]any)
	hists, _ = last.Attrs["histograms"].(map[string]any)
	return counters, hists
}

// Efficiency derives the cache/arena/GEMM figures from the last metrics
// snapshot (counters are cumulative, so the last snapshot is the run total).
func (t *Trace) Efficiency() Efficiency {
	var eff Efficiency
	counters, hists := t.lastMetrics()
	if counters != nil {
		eff.Counters = make(map[string]int64, len(counters))
		for k, v := range counters {
			if f, ok := v.(float64); ok {
				eff.Counters[k] = int64(f)
			}
		}
	}
	eff.EvoCache = Ratio{Name: "evo.cache", Hits: eff.Counters["evo.cache_hits"], Misses: eff.Counters["evo.cache_misses"]}
	eff.Arena = Ratio{Name: "nn.arena", Hits: eff.Counters["nn.arena_hits"], Misses: eff.Counters["nn.arena_misses"]}
	if h, ok := hists["compute.gemm_seconds"].(map[string]any); ok {
		if c, ok := h["count"].(float64); ok {
			eff.GEMMCount = uint64(c)
		}
		if s, ok := h["sum"].(float64); ok {
			eff.GEMMSeconds = s
		}
	}
	return eff
}

// CountEvents tallies point events by name (cycle events, artifacts, …).
func (t *Trace) CountEvents() map[string]int {
	out := make(map[string]int, 8)
	for _, e := range t.Events {
		out[e.Name]++
	}
	return out
}

// String is a short one-line identity for error messages.
func (t *Trace) String() string {
	return fmt.Sprintf("trace{tool=%s spans=%d events=%d metrics=%d outcome=%s}",
		t.Tool(), len(t.Spans), len(t.Events), len(t.Metrics), t.Outcome())
}
