//go:build !race

package nn

import (
	"runtime"
	"testing"
)

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

// TestAnalyzeRejectAllocs pins the cost of a rejection: a collapsed
// architecture allocates only its error value, whose message is formatted
// when read.
func TestAnalyzeRejectAllocs(t *testing.T) {
	a := &Arch{Input: []int{1, 2, 2}, Body: []LayerSpec{{Kind: KindReLU}, {Kind: KindConv, Out: 4, K: 5, Stride: 1}}, Classes: 2}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = a.Analyze() }); allocs > 1 {
		t.Errorf("collapsed Analyze: %.0f allocs/op, want ≤ 1", allocs)
	}
}

// TestBuildWithoutTrainingState pins what building cmd/deploy's default
// gesture model costs a caller that only infers or reads MACs: the weights
// once, with no gradient or momentum buffers until the network trains.
// Allocating all three per parameter took 849224 B per Build; the pin is
// 40% of that.
func TestBuildWithoutTrainingState(t *testing.T) {
	a := &Arch{Input: []int{1, 6, 120}, Body: []LayerSpec{
		{Kind: KindConv, Out: 6, K: 3, Stride: 1, Pad: 1},
		{Kind: KindReLU},
		{Kind: KindMaxPool, K: 2},
		{Kind: KindDense, Out: 32},
		{Kind: KindReLU},
	}, Classes: 10}
	net, err := a.Build()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range net.Params() {
		if p.Grad != nil || p.Momentum != nil {
			t.Fatalf("param %d: training state allocated by Build", i)
		}
	}
	const builds = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		if _, err := a.Build(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got, limit := (after.TotalAlloc-before.TotalAlloc)/builds, uint64(849224*4/10); got > limit {
		t.Errorf("Build allocates %d B, want ≤ %d", got, limit)
	}
}
