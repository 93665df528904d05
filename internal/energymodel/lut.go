package energymodel

import (
	"fmt"
	"math"
	"sort"

	"solarml/internal/nn"
)

// LUTEstimator is the lookup-table energy model of Micronets/MCUNet [7,3]:
// per layer kind, the energy of isolated layers is measured at a grid of
// MAC counts and whole-model energy is predicted as the interpolated sum.
// It is accurate — the paper's criticism is the calibration cost: the table
// needs kinds × grid × repeats dedicated measurements, where the eNAS
// regression needs one fit over whatever models are available.
type LUTEstimator struct {
	// OverheadJ is the measured fixed cost of an empty inference.
	OverheadJ float64
	// Grid holds each compute kind's measured (MACs,
	// energy-above-overhead) points sorted by MACs.
	Grid [nn.NumLayerKinds][]LUTPoint
	// Measurements counts the calibration measurements spent.
	Measurements int
}

// LUTPoint is one calibration measurement.
type LUTPoint struct {
	MACs    int64
	EnergyJ float64
}

// MeasureLayer returns a measured energy for an isolated layer of the
// given kind and MAC count (a single-layer calibration model).
func (m *Measurer) MeasureLayer(kind nn.LayerKind, macs int64) float64 {
	return m.MeasureInference(nn.KindMACs{}.With(kind, macs))
}

// MeasureOverhead returns a measured empty-model inference cost.
func (m *Measurer) MeasureOverhead() float64 {
	return m.MeasureInference(nn.KindMACs{})
}

// CalibrateLUT runs the per-layer measurement campaign: `points` log-spaced
// MAC counts per kind, `repeats` measurements each (averaged), plus the
// overhead measurement.
func CalibrateLUT(m *Measurer, points, repeats int) (*LUTEstimator, error) {
	if points < 2 || repeats < 1 {
		return nil, fmt.Errorf("energymodel: LUT needs ≥2 points and ≥1 repeat")
	}
	l := &LUTEstimator{}
	var oh float64
	for r := 0; r < repeats; r++ {
		oh += m.MeasureOverhead()
		l.Measurements++
	}
	l.OverheadJ = oh / float64(repeats)
	const minMACs, maxMACs = 5_000.0, 3_000_000.0
	for _, kind := range nn.ComputeKinds() {
		for p := 0; p < points; p++ {
			frac := float64(p) / float64(points-1)
			macs := int64(minMACs * math.Pow(maxMACs/minMACs, frac))
			var e float64
			for r := 0; r < repeats; r++ {
				e += m.MeasureLayer(kind, macs)
				l.Measurements++
			}
			e = e/float64(repeats) - l.OverheadJ
			if e < 0 {
				e = 0
			}
			l.Grid[kind] = append(l.Grid[kind], LUTPoint{MACs: macs, EnergyJ: e})
		}
		sort.Slice(l.Grid[kind], func(i, j int) bool {
			return l.Grid[kind][i].MACs < l.Grid[kind][j].MACs
		})
	}
	return l, nil
}

// layerEnergy interpolates one kind's table log-linearly in MACs.
func (l *LUTEstimator) layerEnergy(kind nn.LayerKind, macs int64) float64 {
	grid := l.Grid[kind]
	if len(grid) == 0 || macs <= 0 {
		return 0
	}
	x := float64(macs)
	if x <= float64(grid[0].MACs) {
		// Extrapolate proportionally below the grid.
		return grid[0].EnergyJ * x / float64(grid[0].MACs)
	}
	last := grid[len(grid)-1]
	if x >= float64(last.MACs) {
		return last.EnergyJ * x / float64(last.MACs)
	}
	i := sort.Search(len(grid), func(k int) bool { return float64(grid[k].MACs) >= x })
	lo, hi := grid[i-1], grid[i]
	f := (math.Log(x) - math.Log(float64(lo.MACs))) /
		(math.Log(float64(hi.MACs)) - math.Log(float64(lo.MACs)))
	return lo.EnergyJ + f*(hi.EnergyJ-lo.EnergyJ)
}

// Predict estimates whole-model inference energy.
func (l *LUTEstimator) Predict(macs nn.KindMACs) float64 {
	e := l.OverheadJ
	for _, kind := range nn.ComputeKinds() {
		e += l.layerEnergy(kind, macs.Of(kind))
	}
	return e
}
