//go:build !race

package nas

import (
	"math/rand"
	"testing"
)

// TestStaticScreenZeroAllocs pins the search hot path: the static
// constraint check on a feasible candidate and its fingerprint allocate
// nothing. (Excluded under -race, whose instrumentation changes allocation
// behaviour.)
func TestStaticScreenZeroAllocs(t *testing.T) {
	for _, space := range []*Space{GestureSpace(), KWSSpace()} {
		ct := DefaultConstraints(space.Task)
		rng := rand.New(rand.NewSource(5))
		c := space.RandomCandidate(rng)
		for ct.CheckStatic(c) != nil {
			c = space.RandomCandidate(rng)
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = ct.CheckStatic(c) }); allocs != 0 {
			t.Errorf("%s CheckStatic: %.0f allocs/op, want 0", space.Task, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = c.Fingerprint() }); allocs != 0 {
			t.Errorf("%s Fingerprint: %.0f allocs/op, want 0", space.Task, allocs)
		}
	}
}

// TestSurrogateEvaluateAllocs pins the surrogate search's per-candidate
// cost: with fitted energy models, an evaluation of a bound candidate
// allocates at most the two feature vectors handed to the regressions —
// the analysis and fingerprint are reused, and the MAC breakdown is a
// value.
func TestSurrogateEvaluateAllocs(t *testing.T) {
	space := GestureSpace()
	fe, err := CalibrateEnergy(space, 60, true, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewSurrogateEvaluator(fe)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 8; i++ {
		c := space.RandomCandidate(rng)
		if allocs := testing.AllocsPerRun(50, func() { _, _ = ev.Evaluate(c) }); allocs > 2 {
			t.Errorf("candidate %d: %.0f allocs/op, want ≤ 2", i, allocs)
		}
	}
}
