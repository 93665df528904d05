package enas

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"solarml/internal/compute"
	"solarml/internal/dataset"
	"solarml/internal/nas"
)

// spyWarmEvaluator wraps a WarmStartEvaluator and counts how lineage flows
// into it: cold Evaluate calls, EvaluateFrom calls, and — the grid-mutation
// signature — EvaluateFrom calls whose child keeps the parent architecture.
type spyWarmEvaluator struct {
	inner nas.WarmStartEvaluator

	mu           sync.Mutex
	cold         int
	warm         int
	warmSameArch int
}

func (s *spyWarmEvaluator) Evaluate(c *nas.Candidate) (nas.Result, error) {
	s.mu.Lock()
	s.cold++
	s.mu.Unlock()
	return s.inner.Evaluate(c)
}

func (s *spyWarmEvaluator) EvaluateFrom(child, parent *nas.Candidate) (nas.Result, error) {
	s.mu.Lock()
	s.warm++
	if child.Arch.String() == parent.Arch.String() {
		s.warmSameArch++
	}
	s.mu.Unlock()
	return s.inner.EvaluateFrom(child, parent)
}

// tinyTrainEvaluator builds a real-training evaluator small enough for tests.
func tinyTrainEvaluator(seed int64) *nas.TrainEvaluator {
	ev := &nas.TrainEvaluator{Energy: nas.NewTruthEnergy(), Epochs: 1, LR: 0.05, Seed: seed, WarmStart: true}
	full := dataset.BuildGestureSet(45, 500, 11)
	ev.GestureTrain, ev.GestureTest = full.Split(3)
	return ev
}

// TestParallelGridWarmStarts pins the fix for the parallel evaluateAll path,
// which used to fall back to cold Evaluate and silently drop warm-start
// weight inheritance. Grid-mutation neighbours keep the parent architecture,
// so with a warm-start evaluator and Workers > 1 the search must reach the
// evaluator through EvaluateFrom with an architecture-preserving lineage.
func TestParallelGridWarmStarts(t *testing.T) {
	space := nas.GestureSpace()
	spy := &spyWarmEvaluator{inner: tinyTrainEvaluator(1)}
	cfg := Config{
		Lambda: 0.5, Population: 4, SampleSize: 2, Cycles: 4,
		SensingEvery: 2, Seed: 1, Constraints: nas.DefaultConstraints(nas.TaskGesture),
		Workers: 4,
	}
	if _, err := Search(space, spy, cfg); err != nil {
		t.Fatal(err)
	}
	spy.mu.Lock()
	defer spy.mu.Unlock()
	if spy.warmSameArch == 0 {
		t.Fatalf("parallel grid mutations never warm-started (cold=%d warm=%d)", spy.cold, spy.warm)
	}
	// Phase 1 has no lineage; it must stay on the cold path.
	if spy.cold < cfg.Population {
		t.Fatalf("phase 1 should evaluate cold, got %d cold calls", spy.cold)
	}
}

// TestTournamentScoresEachSampledOnce pins the Phase 2 selection cost: every
// tournament must invoke the objective once per sampled candidate, not
// O(SampleSize²) as the old compare-against-incumbent loop did.
func TestTournamentScoresEachSampledOnce(t *testing.T) {
	space := nas.GestureSpace()
	eval := nas.NewSurrogateEvaluator(nas.NewTruthEnergy())
	var calls atomic.Int64
	cfg := Config{
		Lambda: 0.5, Population: 16, SampleSize: 12, Cycles: 30,
		SensingEvery: 1 << 30, // no grid cycles: isolate the tournament
		Seed:         5, Constraints: nas.DefaultConstraints(nas.TaskGesture),
		Objective: func(acc, energyJ, eMin, eMax float64) float64 {
			calls.Add(1)
			span := eMax - eMin
			if span <= 0 {
				span = 1
			}
			return acc - 0.5*(energyJ-eMin)/span
		},
	}
	out, err := Search(space, eval, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Tournaments cost Cycles×SampleSize exactly; the final bestFeasible
	// sweep adds at most 2×|History|. The old quadratic loop would have
	// spent 2×(SampleSize−1) per cycle on tournaments alone (~660 more).
	budget := int64(cfg.Cycles*cfg.SampleSize + 2*len(out.History))
	if got := calls.Load(); got > budget {
		t.Fatalf("objective invoked %d times, budget %d — tournament re-scores candidates", got, budget)
	}
}

// TestSearchBitIdenticalAcrossComputeWorkers is the tentpole's end-to-end
// acceptance check: a seeded search over a real-training evaluator returns a
// byte-identical best candidate whether candidate training runs on the
// serial backend or the parallel backend with several kernel workers.
func TestSearchBitIdenticalAcrossComputeWorkers(t *testing.T) {
	run := func(kernelWorkers int) *Outcome {
		space := nas.GestureSpace()
		cfg := Config{
			Lambda: 0.5, Population: 4, SampleSize: 2, Cycles: 4,
			SensingEvery: 2, Seed: 9, Constraints: nas.DefaultConstraints(nas.TaskGesture),
		}
		eval := tinyTrainEvaluator(3)
		eval.Compute = compute.NewContextFor(kernelWorkers, nil)
		out, err := Search(space, eval, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	parallel := run(4)
	if serial.Best.Cand.Fingerprint() != parallel.Best.Cand.Fingerprint() {
		t.Fatal("kernel worker count changed the selected candidate")
	}
	if len(serial.History) != len(parallel.History) {
		t.Fatalf("history lengths differ: %d vs %d", len(serial.History), len(parallel.History))
	}
	for i := range serial.History {
		a, b := serial.History[i].Res, parallel.History[i].Res
		if math.Float64bits(a.Accuracy) != math.Float64bits(b.Accuracy) ||
			math.Float64bits(a.EnergyJ) != math.Float64bits(b.EnergyJ) {
			t.Fatalf("entry %d: results differ between 1 and 4 kernel workers: %+v vs %+v", i, a, b)
		}
	}
}
