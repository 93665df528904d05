package enas

import (
	"bytes"
	"reflect"
	"testing"

	"solarml/internal/nas"
	"solarml/internal/obs"
)

// TestSearchDeterministicWithTelemetry pins the central obs contract:
// recording a trace must not perturb the search. The same seed yields the
// identical Best candidate (and full outcome) with telemetry enabled —
// recorder, metrics, and an event subscriber all on — and disabled.
func TestSearchDeterministicWithTelemetry(t *testing.T) {
	space := nas.GestureSpace()
	eval := nas.NewSurrogateEvaluator(nas.NewTruthEnergy())

	plain, err := Search(space, eval, smallConfig(nas.TaskGesture, 0.5, 7))
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	rec := obs.NewRecorder(&buf)
	cfg := smallConfig(nas.TaskGesture, 0.5, 7)
	cfg.Obs = rec
	cfg.Metrics = obs.NewRegistry()
	subscribed := 0
	unsub := rec.Subscribe(func(e obs.Event) {
		if e.Kind == obs.KindEvent && e.Name == "enas.cycle" {
			subscribed++
		}
	})
	defer unsub()
	traced, err := Search(space, eval, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec.Finish("ok")

	if plain.Best.Cand.Fingerprint() != traced.Best.Cand.Fingerprint() {
		t.Fatalf("telemetry changed the Best candidate: %v vs %v",
			plain.Best.Cand, traced.Best.Cand)
	}
	if !reflect.DeepEqual(plain.Best.Res, traced.Best.Res) {
		t.Fatalf("telemetry changed the Best result: %+v vs %+v", plain.Best.Res, traced.Best.Res)
	}
	if plain.Evaluations != traced.Evaluations ||
		plain.EMin != traced.EMin || plain.EMax != traced.EMax {
		t.Fatalf("telemetry changed the outcome: %d/%v/%v vs %d/%v/%v",
			plain.Evaluations, plain.EMin, plain.EMax,
			traced.Evaluations, traced.EMin, traced.EMax)
	}
	if len(plain.History) != len(traced.History) {
		t.Fatalf("history length differs: %d vs %d", len(plain.History), len(traced.History))
	}
	for i := range plain.History {
		if plain.History[i].Cand.Fingerprint() != traced.History[i].Cand.Fingerprint() {
			t.Fatalf("history diverges at evaluation %d", i)
		}
	}

	// A subscriber sees every cycle event synchronously, once per cycle.
	if subscribed != cfg.Cycles {
		t.Fatalf("subscriber saw %d cycle events, want %d", subscribed, cfg.Cycles)
	}

	// The trace must decode and carry ≥1 cycle event per cycle with the
	// documented attributes, plus the phase and search spans.
	events, skipped, err := obs.ScanTrace(&buf)
	if err != nil || skipped != 0 {
		t.Fatalf("trace does not decode: %v, %d lines skipped", err, skipped)
	}
	var cycles, phases, searches int
	for _, e := range events {
		switch {
		case e.Kind == obs.KindEvent && e.Name == "enas.cycle":
			cycles++
			if e.Int("cycle") < 1 || e.Int("cycle") > int64(cfg.Cycles) {
				t.Fatalf("cycle index out of range: %+v", e)
			}
			if e.Float("best_acc") <= 0 || e.Float("best_energy_j") <= 0 {
				t.Fatalf("cycle event missing best acc/energy: %+v", e)
			}
			if _, ok := e.Attrs["objective"]; !ok {
				t.Fatalf("cycle event missing objective: %+v", e)
			}
			if e.Float("e_max_j") <= e.Float("e_min_j") {
				t.Fatalf("cycle event has degenerate bounds: %+v", e)
			}
		case e.Kind == obs.KindSpan && (e.Name == "enas.phase1" || e.Name == "enas.phase2"):
			phases++
		case e.Kind == obs.KindSpan && e.Name == "enas.search":
			searches++
		}
	}
	if cycles != cfg.Cycles {
		t.Fatalf("trace has %d cycle events, want %d", cycles, cfg.Cycles)
	}
	if phases != 2 || searches != 1 {
		t.Fatalf("trace has %d phase spans and %d search spans, want 2 and 1", phases, searches)
	}

	// Metrics must account for every evaluation.
	snap := cfg.Metrics.Snapshot()
	if got := snap.Counters["enas.evaluations"]; got != int64(traced.Evaluations) {
		t.Fatalf("metrics count %d evaluations, outcome says %d", got, traced.Evaluations)
	}
	if snap.Counters["enas.children_accepted"]+snap.Counters["enas.cycles_without_child"] < int64(cfg.Cycles) {
		t.Fatalf("churn counters do not cover all cycles: %+v", snap.Counters)
	}
}

// TestSearchParallelDeterministicWithTelemetry repeats the determinism
// check with a worker pool, where batch spans and utilization histograms
// are live; also the -race target for the instrumented parallel path.
func TestSearchParallelDeterministicWithTelemetry(t *testing.T) {
	space := nas.GestureSpace()
	eval := nas.NewSurrogateEvaluator(nas.NewTruthEnergy())

	base := smallConfig(nas.TaskGesture, 0.5, 11)
	base.Workers = 4
	plain, err := Search(space, eval, base)
	if err != nil {
		t.Fatal(err)
	}

	cfg := smallConfig(nas.TaskGesture, 0.5, 11)
	cfg.Workers = 4
	cfg.Obs = obs.NewRecorder(nil)
	cfg.Metrics = obs.NewRegistry()
	traced, err := Search(space, eval, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Best.Cand.Fingerprint() != traced.Best.Cand.Fingerprint() {
		t.Fatal("telemetry changed the Best candidate under parallel evaluation")
	}
	snap := cfg.Metrics.Snapshot()
	if snap.Histograms["enas.worker_utilization"].Count == 0 {
		t.Fatal("no worker utilization recorded despite parallel batches")
	}
	if snap.Histograms["enas.eval_seconds"].Count == 0 {
		t.Fatal("no evaluation timings recorded")
	}
}
