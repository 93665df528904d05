//go:build !race

package enas

import (
	"runtime"
	"testing"

	"solarml/internal/nas"
)

// TestSurrogateSearchAllocs pins the allocation cost of one short eNAS
// search at the paper's population (50), sample (20), and grid period
// (R = 20) over 30 cycles, scored by the surrogate over calibrated energy
// models. The figures average over eight seeds per task, with λ
// stratified over [0, 1) as the searches of a sweep are. A gesture search
// measured 215 allocations (76 KB) and a KWS search 187–188 (84–87 KB,
// more when a collection empties the engine's scratch pool); the bounds
// leave about 10% above the larger. (Excluded under -race, whose
// instrumentation changes allocation behaviour.)
func TestSurrogateSearchAllocs(t *testing.T) {
	const (
		searches  = 8
		maxAllocs = 237
		maxBytes  = 96 << 10
	)
	for _, space := range []*nas.Space{nas.GestureSpace(), nas.KWSSpace()} {
		fitted, err := nas.CalibrateEnergy(space, 300, true, true, 1)
		if err != nil {
			t.Fatal(err)
		}
		eval := nas.NewSurrogateEvaluator(fitted)
		cfgs := make([]Config, searches)
		for i := range cfgs {
			cfgs[i] = DefaultConfig(space.Task, (float64(i)+0.5)/searches)
			cfgs[i].Cycles = 30
			cfgs[i].Seed = int64(i + 1)
		}
		if _, err := Search(space, eval, cfgs[0]); err != nil { // warm up
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for _, cfg := range cfgs {
			if _, err := Search(space, eval, cfg); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		allocs := (after.Mallocs - before.Mallocs) / searches
		bytes := (after.TotalAlloc - before.TotalAlloc) / searches
		t.Logf("%s: %d allocs, %.1f KB per search", space.Task, allocs, float64(bytes)/1024)
		if allocs > maxAllocs {
			t.Errorf("%s search: %d allocs, want ≤ %d", space.Task, allocs, maxAllocs)
		}
		if bytes > maxBytes {
			t.Errorf("%s search: %.1f KB, want ≤ %d KB", space.Task, float64(bytes)/1024, maxBytes>>10)
		}
	}
}
