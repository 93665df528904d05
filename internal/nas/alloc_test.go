//go:build !race

package nas

import (
	"math/rand"
	"runtime"
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

// TestStaticRejectAllocs pins the cost of a static rejection: a MAC- or
// memory-limit failure allocates only its error value, whose message is
// formatted when read.
func TestStaticRejectAllocs(t *testing.T) {
	c := staticRejectCandidate(t)
	for _, ct := range []Constraints{
		{MemoryBytes: 1 << 30, MaxMACs: 1000},
		{MemoryBytes: 1000, MaxMACs: 1 << 30},
	} {
		if allocs := testing.AllocsPerRun(100, func() { _ = ct.CheckStatic(c) }); allocs > 1 {
			t.Errorf("%+v CheckStatic reject: %.0f allocs/op, want ≤ 1", ct, allocs)
		}
	}
}

// TestCalibrateEnergyBytes pins the set-up cost of a surrogate search: the
// 300-draw calibration campaign of both tasks allocated 1,022 KB when every
// draw allocated a fresh candidate in four objects and the sample slices
// grew by doubling; the draws now copy out only the accepted candidate, in
// two objects, and the slices are sized once.
func TestCalibrateEnergyBytes(t *testing.T) {
	const maxKB = 800
	var total uint64
	for _, space := range []*Space{GestureSpace(), KWSSpace()} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := CalibrateEnergy(space, 300, true, true, 1); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		total += after.TotalAlloc - before.TotalAlloc
	}
	if kb := float64(total) / 1024; kb > maxKB {
		t.Errorf("CalibrateEnergy(300) over both tasks: %.0f KB, want ≤ %d KB", kb, maxKB)
	}
}
