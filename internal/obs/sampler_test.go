package obs

import (
	"bytes"
	"testing"
	"time"
)

// TestSamplerTimeSeries pins the acceptance shape: a recorded trace with a
// sampler attached carries at least two metrics snapshots, each with the
// runtime gauges set.
func TestSamplerTimeSeries(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(&buf)
	g := NewRegistry()
	g.Counter("work").Inc()
	s := StartSampler(r, g, 5*time.Millisecond)
	time.Sleep(40 * time.Millisecond)
	s.Stop()
	r.Finish("ok")

	events, skipped, err := ScanTrace(&buf)
	if err != nil || skipped != 0 {
		t.Fatalf("trace does not decode: %v, %d lines skipped", err, skipped)
	}
	var snaps []Event
	for _, e := range events {
		if e.Kind == KindMetrics {
			snaps = append(snaps, e)
		}
	}
	if len(snaps) < 2 {
		t.Fatalf("got %d metrics snapshots, want ≥ 2", len(snaps))
	}
	for i, e := range snaps {
		gauges, ok := e.Attrs["gauges"].(map[string]any)
		if !ok {
			t.Fatalf("snapshot %d has no gauges: %+v", i, e.Attrs)
		}
		if v, ok := gauges[GaugeGoroutines].(float64); !ok || v < 1 {
			t.Errorf("snapshot %d: goroutines gauge = %v, want ≥ 1", i, gauges[GaugeGoroutines])
		}
		if v, ok := gauges[GaugeHeapAlloc].(float64); !ok || v <= 0 {
			t.Errorf("snapshot %d: heap gauge = %v, want > 0", i, gauges[GaugeHeapAlloc])
		}
		counters, _ := e.Attrs["counters"].(map[string]any)
		if v, _ := counters["work"].(float64); v != 1 {
			t.Errorf("snapshot %d: workload counter missing: %v", i, e.Attrs["counters"])
		}
	}
	// Timestamps must be strictly increasing: a series, not one repeated
	// snapshot.
	for i := 1; i < len(snaps); i++ {
		if snaps[i].T <= snaps[i-1].T {
			t.Fatalf("snapshot times not increasing: %v then %v", snaps[i-1].T, snaps[i].T)
		}
	}
}

// TestSamplerNilSafety: a nil registry disables the sampler; a nil sampler's
// Stop is a no-op; a nil recorder still updates gauges for live scraping.
func TestSamplerNilSafety(t *testing.T) {
	if s := StartSampler(NewRecorder(nil), nil, time.Millisecond); s != nil {
		t.Fatal("sampler over nil registry should be nil")
	}
	var s *Sampler
	s.Stop() // must not panic

	g := NewRegistry()
	live := StartSampler(nil, g, time.Millisecond)
	time.Sleep(5 * time.Millisecond)
	live.Stop()
	if g.Gauge(GaugeGoroutines).Value() < 1 {
		t.Fatal("recorder-less sampler should still publish runtime gauges")
	}
}

// TestSamplerStopIsTerminalSample: even when no interval elapses, Stop
// leaves one closing snapshot, so short runs are never empty.
func TestSamplerStopIsTerminalSample(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(&buf)
	g := NewRegistry()
	StartSampler(r, g, time.Hour).Stop()
	r.Flush()
	events, skipped, err := ScanTrace(&buf)
	if err != nil || skipped != 0 {
		t.Fatalf("trace does not decode: %v, %d lines skipped", err, skipped)
	}
	if len(events) != 1 || events[0].Kind != KindMetrics {
		t.Fatalf("events = %+v, want exactly one metrics snapshot", events)
	}
}
