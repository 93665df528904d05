//go:build !race

package evo

import (
	"testing"

	"solarml/internal/nas"
)

// TestTournamentSampleZeroAllocs pins tournament sampling to the engine's
// own buffer. (Excluded under -race, whose instrumentation changes
// allocation behaviour.)
func TestTournamentSampleZeroAllocs(t *testing.T) {
	e := tournamentEngine(t, 3)
	if allocs := testing.AllocsPerRun(100, func() { _ = e.sample() }); allocs != 0 {
		t.Errorf("tournament sampling: %.0f allocs/op, want 0", allocs)
	}
}

// fingerprintEval scores a candidate from its fingerprint alone, so an
// evaluation allocates nothing and the tournament still has spread.
type fingerprintEval struct{}

func (fingerprintEval) Evaluate(c *nas.Candidate) (nas.Result, error) {
	fp := c.Fingerprint()
	return nas.Result{Accuracy: float64(fp%1000) / 1000, EnergyJ: 1 + float64(fp%777)}, nil
}

// TestStepAllocs pins the engine's share of an architecture-morphism
// cycle: scoring the tournament, recording the child, and aging the
// population allocate nothing, so a step costs the child's candidate
// block and its body. The evaluator allocates nothing and the constraints
// admit every child, so the figure is the engine's and the mutator's
// alone; AllocsPerRun rounds the mean down, which absorbs the error value
// of an occasional morphism that does not materialize.
func TestStepAllocs(t *testing.T) {
	for _, space := range []*nas.Space{nas.GestureSpace(), nas.KWSSpace()} {
		e, err := newEngine(&ckptPolicy{space: space}, fingerprintEval{}, Config{
			Population: 50, SampleSize: 20, Cycles: 400, Seed: 3,
			Constraints: nas.Constraints{MemoryBytes: 1 << 62, MaxMACs: 1 << 62, MaxError: 1},
		}, nil, nil, -1)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.fill(); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(200, e.step); allocs > 2 {
			t.Errorf("%s step: %.0f allocs/op, want ≤ 2 (the child's block and body)", space.Task, allocs)
		}
		if e.accepted == 0 {
			t.Fatalf("%s: no child accepted in %d steps", space.Task, e.cycle)
		}
	}
}
