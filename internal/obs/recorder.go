package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Recorder is a JSONL event sink. Every span end, metric flush, and
// explicit Event call becomes one line of JSON; a run manifest heads the
// stream and a finish event closes it. Subscribers observe every event
// synchronously in emission order, so progress callbacks (such as the
// per-cycle report in examples/gesture) are layered on top of the event
// stream.
//
// A nil *Recorder is a valid disabled sink: every method returns
// immediately and allocates nothing. A Recorder over a nil writer is a
// dispatch-only sink — events reach subscribers but are not serialized.
type Recorder struct {
	mu       sync.Mutex
	buf      *bufio.Writer
	enc      *json.Encoder
	line     []byte
	start    time.Time
	err      error
	nextSpan atomic.Uint64

	subMu sync.RWMutex
	subs  map[int]func(Event)
	nsub  int
}

// NewRecorder returns a recorder writing JSONL to w (nil for a
// dispatch-only sink that only feeds subscribers).
func NewRecorder(w io.Writer) *Recorder {
	r := &Recorder{start: time.Now(), subs: make(map[int]func(Event))}
	if w != nil {
		r.buf = bufio.NewWriter(w)
		r.enc = json.NewEncoder(r.buf)
	}
	return r
}

// Enabled reports whether the recorder records anything.
func (r *Recorder) Enabled() bool { return r != nil }

// Err returns the first write error, if any.
func (r *Recorder) Err() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Subscribe registers fn to receive every subsequent event and returns a
// function removing the subscription. Subscribers run synchronously on the
// emitting goroutine; parallel instrumented code therefore may invoke them
// concurrently.
func (r *Recorder) Subscribe(fn func(Event)) (unsubscribe func()) {
	if r == nil {
		return func() {}
	}
	r.subMu.Lock()
	id := r.nsub
	r.nsub++
	r.subs[id] = fn
	r.subMu.Unlock()
	return func() {
		r.subMu.Lock()
		delete(r.subs, id)
		r.subMu.Unlock()
	}
}

// sinceStart returns the event timestamp in seconds.
func (r *Recorder) sinceStart() float64 { return time.Since(r.start).Seconds() }

// dispatch serializes the event (when a writer is attached) and fans it out
// to subscribers. It is the slow path for map-attributed events (manifest,
// metrics snapshot, finish) which occur a handful of times per run; the
// per-cycle/per-evaluation traffic goes through emit instead.
func (r *Recorder) dispatch(e Event) {
	if r.enc != nil {
		r.mu.Lock()
		if err := r.enc.Encode(e); err != nil && r.err == nil {
			r.err = err
		}
		r.mu.Unlock()
	}
	r.subMu.RLock()
	for _, fn := range r.subs {
		fn(e)
	}
	r.subMu.RUnlock()
}

// emit is the hot-path serializer: the JSON line is appended by hand from
// the typed attributes into a reused buffer — no attribute map, no boxing,
// no encoding reflection — keeping the recording overhead of a search
// within its <2% budget. An Event value (with its map) is materialized only
// when subscribers are registered.
func (r *Recorder) emit(kind, name string, span, parent uint64, durMS float64, attrs []Attr) {
	t := r.sinceStart()
	if r.buf != nil {
		r.mu.Lock()
		r.line = appendEvent(r.line[:0], t, kind, name, span, parent, durMS, attrs)
		if _, err := r.buf.Write(r.line); err != nil && r.err == nil {
			r.err = err
		}
		r.mu.Unlock()
	}
	r.subMu.RLock()
	if len(r.subs) > 0 {
		e := Event{T: t, Kind: kind, Name: name, Span: span, Parent: parent, DurMS: durMS, Attrs: attrMap(attrs)}
		for _, fn := range r.subs {
			fn(e)
		}
	}
	r.subMu.RUnlock()
}

// appendEvent renders one JSONL record, byte-compatible with the Event
// struct's encoding (same keys, same omit-when-zero behaviour).
func appendEvent(b []byte, t float64, kind, name string, span, parent uint64, durMS float64, attrs []Attr) []byte {
	b = append(b, `{"t":`...)
	b = appendJSONFloat(b, t)
	b = append(b, `,"kind":"`...)
	b = append(b, kind...) // kind constants are plain identifiers
	b = append(b, '"')
	if name != "" {
		b = append(b, `,"name":`...)
		b = appendJSONString(b, name)
	}
	if span != 0 {
		b = append(b, `,"span":`...)
		b = strconv.AppendUint(b, span, 10)
	}
	if parent != 0 {
		b = append(b, `,"parent":`...)
		b = strconv.AppendUint(b, parent, 10)
	}
	if durMS != 0 {
		b = append(b, `,"dur_ms":`...)
		b = appendJSONFloat(b, durMS)
	}
	if len(attrs) > 0 {
		b = append(b, `,"attrs":{`...)
		for i, a := range attrs {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, a.Key)
			b = append(b, ':')
			switch a.kind {
			case kindInt:
				b = strconv.AppendInt(b, a.i, 10)
			case kindFloat:
				b = appendJSONFloat(b, a.f)
			case kindStr:
				b = appendJSONString(b, a.s)
			case kindBool:
				b = strconv.AppendBool(b, a.i != 0)
			default:
				b = append(b, "null"...)
			}
		}
		b = append(b, '}')
	}
	return append(b, '}', '\n')
}

// appendJSONFloat renders f as a JSON number; non-finite values (which JSON
// cannot represent) become null rather than corrupting the line.
func appendJSONFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(b, "null"...)
	}
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}

const hexDigits = "0123456789abcdef"

// appendJSONString renders s as a quoted JSON string, escaping quotes,
// backslashes, and control bytes; multi-byte UTF-8 passes through verbatim.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' {
			continue
		}
		b = append(b, s[start:i]...)
		switch c {
		case '"':
			b = append(b, '\\', '"')
		case '\\':
			b = append(b, '\\', '\\')
		case '\n':
			b = append(b, '\\', 'n')
		case '\r':
			b = append(b, '\\', 'r')
		case '\t':
			b = append(b, '\\', 't')
		default:
			b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		}
		start = i + 1
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// attrMap boxes attributes into an event attribute map.
func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value()
	}
	return m
}

// Event emits a point-in-time event.
func (r *Recorder) Event(name string, attrs ...Attr) {
	if r == nil {
		return
	}
	r.emit(KindEvent, name, 0, 0, 0, attrs)
}

// Manifest identifies a run: what produced the trace, from which source
// version, under which seed and configuration.
type Manifest struct {
	// Tool names the producing command or experiment.
	Tool string
	// Seed is the run's random seed.
	Seed int64
	// Config carries the remaining run parameters.
	Config map[string]any
}

// WriteManifest heads the trace with the run manifest: tool, version,
// go toolchain, seed, wall-clock start, and configuration.
func (r *Recorder) WriteManifest(m Manifest) {
	if r == nil {
		return
	}
	attrs := map[string]any{
		"version": Version(),
		"go":      GoVersion(),
		"seed":    m.Seed,
		"start":   r.start.UTC().Format(time.RFC3339Nano),
	}
	for k, v := range m.Config {
		attrs["config."+k] = v
	}
	r.dispatch(Event{T: r.sinceStart(), Kind: KindManifest, Name: m.Tool, Attrs: attrs})
}

// FlushMetrics emits a snapshot of the registry as one metrics event.
func (r *Recorder) FlushMetrics(g *Registry) {
	if r == nil || g == nil {
		return
	}
	s := g.Snapshot()
	attrs := make(map[string]any, 3)
	if s.Counters != nil {
		attrs["counters"] = s.Counters
	}
	if s.Gauges != nil {
		attrs["gauges"] = s.Gauges
	}
	if s.Histograms != nil {
		attrs["histograms"] = s.Histograms
	}
	r.dispatch(Event{T: r.sinceStart(), Kind: KindMetrics, Name: "metrics", Attrs: attrs})
}

// Finish closes the trace with the run outcome ("ok", an error string, …)
// and total wall-clock duration, then flushes buffered output.
func (r *Recorder) Finish(outcome string, attrs ...Attr) {
	if r == nil {
		return
	}
	m := attrMap(attrs)
	if m == nil {
		m = make(map[string]any, 2)
	}
	m["outcome"] = outcome
	m["end"] = time.Now().UTC().Format(time.RFC3339Nano)
	r.dispatch(Event{T: r.sinceStart(), Kind: KindFinish, Name: "finish", DurMS: r.sinceStart() * 1e3, Attrs: m})
	r.Flush()
}

// Flush forces buffered JSONL output to the underlying writer.
func (r *Recorder) Flush() error {
	if r == nil || r.buf == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.buf.Flush(); err != nil && r.err == nil {
		r.err = err
	}
	return r.err
}

// maxTraceLine bounds one JSONL line (a metrics snapshot with many
// histograms is the largest realistic event).
const maxTraceLine = 16 << 20

// ScanTrace decodes a JSONL trace produced by a Recorder line by line,
// skipping lines that are not valid JSON objects instead of failing the
// whole read: the primary consumer (obs-report) must make sense of traces
// left behind by crashed or killed runs. The contract the report layer
// relies on:
//
//   - Each line is decoded independently; blank lines are ignored.
//   - A line that fails to decode — non-JSON garbage, or the partial final
//     line of a killed process — is skipped and counted in skipped. Every
//     well-formed line before and after it is still returned.
//   - Events with unknown kind values are returned as-is (forward
//     compatibility: consumers filter on the kinds they understand).
//   - err reports only I/O failures (and a line exceeding the 16 MiB
//     bound), never malformed content.
func ScanTrace(rd io.Reader) (events []Event, skipped int, err error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 64<<10), maxTraceLine)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var e Event
		if json.Unmarshal(line, &e) != nil {
			skipped++
			continue
		}
		events = append(events, e)
	}
	return events, skipped, sc.Err()
}
