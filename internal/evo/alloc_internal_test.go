//go:build !race

package evo

import "testing"

// TestTournamentSampleZeroAllocs pins tournament sampling to the engine's
// own buffer. (Excluded under -race, whose instrumentation changes
// allocation behaviour.)
func TestTournamentSampleZeroAllocs(t *testing.T) {
	e := tournamentEngine(t, 3)
	if allocs := testing.AllocsPerRun(100, func() { _ = e.sample() }); allocs != 0 {
		t.Errorf("tournament sampling: %.0f allocs/op, want 0", allocs)
	}
}
