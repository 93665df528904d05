//go:build !race

package energymodel

import "testing"

// coeffSink keeps the measured call's result live, as the fleet's does.
var coeffSink Coefficients

// TestDefaultCoefficientsZeroAllocs pins the fleet's per-session cost path:
// the calibrated ground truth is a value copied out, not rebuilt. (Excluded
// under -race, whose instrumentation changes allocation behaviour.)
func TestDefaultCoefficientsZeroAllocs(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() { coeffSink = DefaultCoefficients() }); allocs != 0 {
		t.Fatalf("DefaultCoefficients: %.0f allocs/op, want 0", allocs)
	}
}
