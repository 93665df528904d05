package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// chromeEvent is one entry of the Chrome/Perfetto trace-event format
// (ph "X" complete spans, "i" instants, "C" counter samples).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object flavour of the format, which both
// chrome://tracing and ui.perfetto.dev load.
type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// WritePerfetto exports the trace as Chrome trace-event JSON: each root
// span tree renders on its own track (tid), point events become instants on
// their parent's track, and every metrics snapshot becomes one counter
// sample per counter/gauge — so a Sampler-equipped trace shows metric time
// series alongside the span waterfall.
func (t *Trace) WritePerfetto(w io.Writer) error {
	out := chromeTrace{DisplayTimeUnit: "ms"}
	if t.Manifest != nil {
		out.OtherData = map[string]any{"tool": t.Manifest.Name}
		for k, v := range t.Manifest.Attrs {
			out.OtherData[k] = v
		}
	}

	// One track per root tree, in start order; remember each span's track
	// so instants land next to their parents.
	tidOf := make(map[uint64]int, len(t.Spans))
	for i, root := range t.Roots {
		tid := i + 1
		var walk func(sp *Span)
		walk = func(sp *Span) {
			tidOf[sp.ID] = tid
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: sp.Name, Cat: sp.Subsystem(), Ph: "X",
				TS: sp.Start * 1e6, Dur: sp.DurMS * 1e3,
				PID: 1, TID: tid, Args: sp.Attrs,
			})
			for _, c := range sp.Children {
				walk(c)
			}
		}
		walk(root)
	}
	for _, e := range t.Events {
		tid := tidOf[e.Parent]
		if tid == 0 {
			tid = 1
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: e.Name, Cat: subsystem(e.Name), Ph: "i",
			TS: e.T * 1e6, PID: 1, TID: tid, S: "t", Args: e.Attrs,
		})
	}
	for _, m := range t.Metrics {
		ts := m.T * 1e6
		if counters, ok := m.Attrs["counters"].(map[string]any); ok {
			for name, v := range counters {
				out.TraceEvents = append(out.TraceEvents, chromeEvent{
					Name: name, Ph: "C", TS: ts, PID: 1, TID: 0,
					Args: map[string]any{"value": v},
				})
			}
		}
		if gauges, ok := m.Attrs["gauges"].(map[string]any); ok {
			for name, v := range gauges {
				out.TraceEvents = append(out.TraceEvents, chromeEvent{
					Name: name, Ph: "C", TS: ts, PID: 1, TID: 0,
					Args: map[string]any{"value": v},
				})
			}
		}
	}
	// Counter/instant interleavings above iterate maps; sort for stable
	// output (viewers don't care, diffs and tests do).
	sort.SliceStable(out.TraceEvents, func(i, j int) bool {
		a, b := out.TraceEvents[i], out.TraceEvents[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		return a.Name < b.Name
	})
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteFolded exports flamegraph folded stacks: one line per unique
// root→leaf path, "a;b;c <self-µs>", compatible with flamegraph.pl and
// speedscope. Equal paths (e.g. every enas.eval_batch under phase2)
// aggregate.
func (t *Trace) WriteFolded(w io.Writer) error {
	agg := make(map[string]float64)
	var order []string
	var walk func(sp *Span, prefix string)
	walk = func(sp *Span, prefix string) {
		stack := sp.Name
		if prefix != "" {
			stack = prefix + ";" + sp.Name
		}
		if _, seen := agg[stack]; !seen {
			order = append(order, stack)
		}
		agg[stack] += sp.SelfMS * 1e3
		for _, c := range sp.Children {
			walk(c, stack)
		}
	}
	for _, root := range t.Roots {
		walk(root, "")
	}
	sort.Strings(order)
	for _, stack := range order {
		if _, err := fmt.Fprintf(w, "%s %d\n", stack, int64(agg[stack]+0.5)); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV exports the by-name rollup as CSV (one row per span name,
// sorted by total time).
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"name", "count", "total_ms", "self_ms", "min_ms", "p50_ms", "p95_ms", "max_ms"}); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
	for _, st := range t.Rollup() {
		if err := cw.Write([]string{
			st.Name, strconv.Itoa(st.Count),
			f(st.TotalMS), f(st.SelfMS), f(st.MinMS), f(st.P50MS), f(st.P95MS), f(st.MaxMS),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteSummary renders the human-readable report cmd/obs-report prints by
// default: run identity, span rollup, subsystem breakdown with coverage
// against the root wall clock, critical path, efficiency ratios, and the
// metrics-snapshot cadence.
func (t *Trace) WriteSummary(w io.Writer) error {
	var b strings.Builder

	if m := t.Manifest; m != nil {
		fmt.Fprintf(&b, "run:      %s (seed %d, version %s, %s)\n",
			m.Name, m.Int("seed"), m.Str("version"), m.Str("go"))
		keys := make([]string, 0, len(m.Attrs))
		for k := range m.Attrs {
			if strings.HasPrefix(k, "config.") {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		if len(keys) > 0 {
			b.WriteString("config:  ")
			for _, k := range keys {
				fmt.Fprintf(&b, " %s=%v", strings.TrimPrefix(k, "config."), m.Attrs[k])
			}
			b.WriteByte('\n')
		}
	} else {
		b.WriteString("run:      (no manifest — truncated trace?)\n")
	}
	fmt.Fprintf(&b, "outcome:  %s, wall %.1f ms\n", t.Outcome(), t.WallMS())
	fmt.Fprintf(&b, "trace:    %d spans, %d events, %d metrics snapshots",
		len(t.Spans), len(t.Events), len(t.Metrics))
	if t.SkippedLines > 0 || t.UnknownKinds > 0 {
		fmt.Fprintf(&b, " (%d corrupt lines skipped, %d unknown kinds ignored)",
			t.SkippedLines, t.UnknownKinds)
	}
	b.WriteByte('\n')

	if rollup := t.Rollup(); len(rollup) > 0 {
		fmt.Fprintf(&b, "\nspan rollup:\n  %-28s %6s %12s %12s %10s %10s\n",
			"name", "count", "total_ms", "self_ms", "p50_ms", "p95_ms")
		for _, st := range rollup {
			fmt.Fprintf(&b, "  %-28s %6d %12.3f %12.3f %10.3f %10.3f\n",
				st.Name, st.Count, st.TotalMS, st.SelfMS, st.P50MS, st.P95MS)
		}

		rootMS := t.RootTotalMS()
		fmt.Fprintf(&b, "\nper-phase breakdown (self time):\n")
		for _, ph := range t.Phases() {
			pct := 0.0
			if rootMS > 0 {
				pct = 100 * ph.SelfMS / rootMS
			}
			fmt.Fprintf(&b, "  %-12s %12.3f ms  %5.1f%%  (%d spans)\n", ph.Phase, ph.SelfMS, pct, ph.Spans)
		}
		if rootMS > 0 {
			fmt.Fprintf(&b, "  coverage: %.3f ms attributed of %.3f ms in %d root span(s) (%.1f%%)\n",
				t.PhaseSelfTotalMS(), rootMS, len(t.Roots), 100*t.PhaseSelfTotalMS()/rootMS)
		}

		if path := t.CriticalPath(); len(path) > 0 {
			b.WriteString("\ncritical path:\n")
			for _, sp := range path {
				pct := 0.0
				if path[0].DurMS > 0 {
					pct = 100 * sp.DurMS / path[0].DurMS
				}
				fmt.Fprintf(&b, "  %s%-28s %12.3f ms  %5.1f%%\n",
					strings.Repeat("  ", sp.Depth), sp.Name, sp.DurMS, pct)
			}
		}
	}

	eff := t.Efficiency()
	var effLines []string
	for _, r := range []Ratio{eff.EvoCache, eff.Arena} {
		if r.Hits+r.Misses > 0 {
			effLines = append(effLines, fmt.Sprintf("  %-14s %d hits / %d misses  (%.1f%% hit rate)",
				r.Name, r.Hits, r.Misses, 100*r.Rate()))
		}
	}
	if eff.GEMMCount > 0 {
		effLines = append(effLines, fmt.Sprintf("  %-14s %d calls, %.3f s total", "compute.gemm", eff.GEMMCount, eff.GEMMSeconds))
	}
	if len(effLines) > 0 {
		b.WriteString("\nefficiency:\n")
		for _, l := range effLines {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}

	if counts := t.CountEvents(); len(counts) > 0 {
		names := make([]string, 0, len(counts))
		for n := range counts {
			names = append(names, n)
		}
		sort.Strings(names)
		b.WriteString("\nevents:\n")
		for _, n := range names {
			fmt.Fprintf(&b, "  %-28s ×%d\n", n, counts[n])
		}
	}

	if len(t.Metrics) > 1 {
		span := t.Metrics[len(t.Metrics)-1].T - t.Metrics[0].T
		fmt.Fprintf(&b, "\nmetrics time series: %d snapshots over %.1f s (~%.2f s cadence)\n",
			len(t.Metrics), span, span/float64(len(t.Metrics)-1))
	}

	_, err := io.WriteString(w, b.String())
	return err
}
