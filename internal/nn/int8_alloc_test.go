//go:build !race

package nn

import (
	"testing"

	"solarml/internal/compute"
)

// TestInt8ForwardZeroAllocs pins the inference-arena contract: the
// steady-state quantized forward pass performs zero heap allocations, at
// batch 1 and at batch N, serial and pooled, on the gesture model (packed
// dense layers, the folded conv→max-pool) and on the all-ops model (every
// op kind). (Excluded under -race, whose instrumentation changes
// allocation behaviour.)
func TestInt8ForwardZeroAllocs(t *testing.T) {
	gesture, _, gx, _ := convertGesture(t)
	allOps, ax, _, _ := trainedAllOps(t)
	models := []struct {
		name string
		m    *Int8Model
		x    []float64
	}{
		{"gesture", gesture, gx.Data},
		{"allops", allOps, ax.Data},
	}
	ctxs := map[string]*compute.Context{
		"serial": nil,
		"pooled": compute.NewContextFor(4, nil),
	}
	for _, md := range models {
		sample := md.m.InVol()
		for name, ctx := range ctxs {
			for _, batch := range []int{1, 16} {
				ex := md.m.NewExecutor(ctx, batch)
				in := md.x[:batch*sample]
				ex.Forward(in, batch) // warm the cached closures
				allocs := testing.AllocsPerRun(10, func() {
					ex.Forward(in, batch)
				})
				if allocs != 0 {
					t.Errorf("%s %s batch %d: %.0f allocs/op, want 0", md.name, name, batch, allocs)
				}
			}
		}
	}
}
