//go:build !race

package nn

import "testing"

// TestAnalyzeZeroAllocs pins Analyze's contract: validating and profiling
// an architecture allocates nothing, so the search can screen every
// candidate on its hot path. (Excluded under -race, whose instrumentation
// changes allocation behaviour.)
func TestAnalyzeZeroAllocs(t *testing.T) {
	a := &Arch{Input: []int{1, 9, 40}, Body: []LayerSpec{
		{Kind: KindConv, Out: 8, K: 3, Stride: 1, Pad: 1},
		{Kind: KindNorm},
		{Kind: KindReLU},
		{Kind: KindMaxPool, K: 2},
		{Kind: KindDWConv, K: 3, Stride: 1, Pad: 1},
		{Kind: KindAvgPool, K: 2},
		{Kind: KindDense, Out: 32},
		{Kind: KindReLU},
	}, Classes: 10}
	if _, err := a.Analyze(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = a.Analyze() }); allocs != 0 {
		t.Fatalf("Analyze: %.0f allocs/op, want 0", allocs)
	}
}
