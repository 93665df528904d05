package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestJSONLRoundTrip writes a full trace — manifest, nested spans, events,
// metrics flush, finish — and decodes it back.
func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(&buf)
	r.WriteManifest(Manifest{Tool: "test", Seed: 42, Config: map[string]any{"lambda": 0.5}})

	root := r.StartSpan("search", Int("population", 16))
	child := root.Child("phase1")
	child.Set(F64("e_min", 1e-4))
	child.End(F64("e_max", 2e-3))
	root.Event("cycle", Int("cycle", 1), F64("best_acc", 0.9), Bool("replaced", true))
	root.End(Int("evaluations", 10))

	g := NewRegistry()
	g.Counter("evals").Add(10)
	r.FlushMetrics(g)
	r.Finish("ok", Str("note", "done"))
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}

	events, skipped, err := ScanTrace(&buf)
	if err != nil || skipped != 0 {
		t.Fatalf("trace does not decode: %v, %d lines skipped", err, skipped)
	}
	if len(events) != 6 {
		t.Fatalf("got %d events, want 6: %+v", len(events), events)
	}
	if events[0].Kind != KindManifest || events[0].Name != "test" {
		t.Fatalf("first event is not the manifest: %+v", events[0])
	}
	if events[0].Int("seed") != 42 || events[0].Float("config.lambda") != 0.5 {
		t.Fatalf("manifest attrs wrong: %+v", events[0].Attrs)
	}
	if events[0].Str("version") == "" || events[0].Str("go") == "" || events[0].Str("start") == "" {
		t.Fatalf("manifest missing version/go/start: %+v", events[0].Attrs)
	}

	p1 := events[1]
	if p1.Kind != KindSpan || p1.Name != "phase1" || p1.Parent == 0 {
		t.Fatalf("phase1 span wrong: %+v", p1)
	}
	if p1.Float("e_min") != 1e-4 || p1.Float("e_max") != 2e-3 {
		t.Fatalf("Set/End attrs not merged: %+v", p1.Attrs)
	}
	cyc := events[2]
	if cyc.Kind != KindEvent || cyc.Int("cycle") != 1 || cyc.Attrs["replaced"] != true {
		t.Fatalf("cycle event wrong: %+v", cyc)
	}
	search := events[3]
	if search.Kind != KindSpan || search.Name != "search" || search.Parent != 0 {
		t.Fatalf("root span wrong: %+v", search)
	}
	if p1.Parent != search.Span || cyc.Parent != search.Span {
		t.Fatalf("hierarchy broken: phase1 parent %d, cycle parent %d, search id %d",
			p1.Parent, cyc.Parent, search.Span)
	}
	if search.DurMS < 0 {
		t.Fatalf("negative duration: %v", search.DurMS)
	}
	met := events[4]
	if met.Kind != KindMetrics {
		t.Fatalf("metrics event wrong: %+v", met)
	}
	if events[5].Kind != KindFinish || events[5].Str("outcome") != "ok" || events[5].Str("end") == "" {
		t.Fatalf("finish event wrong: %+v", events[5])
	}

	// Every line must be standalone JSON.
	raw := strings.TrimSpace(buf.String())
	if raw != "" {
		t.Fatalf("ScanTrace should have consumed the buffer, left %q", raw)
	}
}

// TestSubscriber checks synchronous fan-out and unsubscription — the
// mechanism progress callbacks on enas.cycle events ride on.
func TestSubscriber(t *testing.T) {
	r := NewRecorder(nil) // dispatch-only sink
	var got []string
	unsub := r.Subscribe(func(e Event) { got = append(got, e.Name) })
	r.Event("a")
	sp := r.StartSpan("s")
	sp.End()
	unsub()
	r.Event("after")
	if len(got) != 2 || got[0] != "a" || got[1] != "s" {
		t.Fatalf("subscriber saw %v, want [a s]", got)
	}
}

// TestNilRecorder exercises the whole disabled surface.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder claims enabled")
	}
	r.WriteManifest(Manifest{Tool: "x"})
	sp := r.StartSpan("s", Int("a", 1))
	if sp.Enabled() || sp.ID() != 0 {
		t.Fatal("nil span not disabled")
	}
	child := sp.Child("c")
	child.Set(F64("f", 1))
	child.Event("e")
	child.End()
	sp.End()
	r.Event("e", Str("k", "v"))
	r.FlushMetrics(NewRegistry())
	r.Finish("ok")
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	unsub := r.Subscribe(func(Event) {})
	unsub()
}

// TestScanTraceCorruptLines pins the skip behaviour obs-report relies on:
// garbage and truncated lines are dropped (and counted) without losing the
// well-formed events around them.
func TestScanTraceCorruptLines(t *testing.T) {
	trace := `{"t":0,"kind":"manifest","name":"test"}
this line is not JSON at all
{"t":0.1,"kind":"span","name":"a","span":1,"dur_ms":5}

{"t":0.2,"kind":"span","name":"b","span":2,"dur_ms":`
	events, skipped, err := ScanTrace(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 2 {
		t.Fatalf("skipped = %d, want 2 (garbage + truncated final line)", skipped)
	}
	if len(events) != 2 || events[0].Kind != KindManifest || events[1].Name != "a" {
		t.Fatalf("events = %+v, want manifest + span a", events)
	}
}

// TestScanTracePartialFinalLine simulates a killed process: a well-formed
// trace whose last line was cut mid-write at every possible byte offset.
// The intact prefix must always come back, the stub never.
func TestScanTracePartialFinalLine(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(&buf)
	sp := r.StartSpan("work", Int("n", 3))
	sp.End()
	r.Event("tick", F64("v", 1.5))
	r.Flush()
	full := buf.String()
	lines := strings.SplitAfter(strings.TrimSuffix(full, "\n"), "\n")
	last := lines[len(lines)-1]
	prefix := full[:len(full)-len(last)-1] // intact lines incl. trailing \n
	for cut := 1; cut < len(last); cut++ {
		events, skipped, err := ScanTrace(strings.NewReader(prefix + last[:cut]))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(events) != len(lines)-1 {
			t.Fatalf("cut %d: %d events, want %d", cut, len(events), len(lines)-1)
		}
		if skipped != 1 {
			t.Fatalf("cut %d: skipped = %d, want 1", cut, skipped)
		}
	}
}

// TestScanTraceUnknownKind checks forward compatibility: events with kinds
// this version does not know are passed through, not dropped.
func TestScanTraceUnknownKind(t *testing.T) {
	trace := `{"t":0,"kind":"manifest","name":"m"}
{"t":1,"kind":"hologram","name":"future","attrs":{"x":1}}
{"t":2,"kind":"finish","name":"finish"}
`
	events, skipped, err := ScanTrace(strings.NewReader(trace))
	if err != nil || skipped != 0 {
		t.Fatalf("err %v skipped %d, want nil/0", err, skipped)
	}
	if len(events) != 3 || events[1].Kind != "hologram" || events[1].Int("x") != 1 {
		t.Fatalf("unknown-kind event not preserved: %+v", events)
	}
}

// TestScanTraceEmpty: an empty reader is an empty trace, not an error.
func TestScanTraceEmpty(t *testing.T) {
	events, skipped, err := ScanTrace(strings.NewReader(""))
	if err != nil || skipped != 0 || len(events) != 0 {
		t.Fatalf("empty trace: events %v skipped %d err %v", events, skipped, err)
	}
}

// TestEventAccessors covers the numeric coercions used after JSON decoding.
func TestEventAccessors(t *testing.T) {
	e := Event{Attrs: map[string]any{"i": float64(3), "f": int64(2), "s": "x"}}
	if e.Int("i") != 3 || e.Float("f") != 2 || e.Str("s") != "x" {
		t.Fatalf("accessors wrong: %+v", e)
	}
	if e.Int("missing") != 0 || e.Float("missing") != 0 || e.Str("missing") != "" {
		t.Fatal("missing keys should be zero")
	}
}
