package energymodel

import (
	"math/rand"
	"testing"

	"solarml/internal/nn"
	"solarml/internal/regress"
)

func TestCalibrateLUTStructure(t *testing.T) {
	m := NewMeasurer(100)
	lut, err := CalibrateLUT(m, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range nn.ComputeKinds() {
		if len(lut.Grid[kind]) != 6 {
			t.Fatalf("%v: %d grid points, want 6", kind, len(lut.Grid[kind]))
		}
	}
	// kinds × points × repeats + overhead repeats.
	want := len(nn.ComputeKinds())*6*3 + 3
	if lut.Measurements != want {
		t.Fatalf("%d measurements, want %d", lut.Measurements, want)
	}
	if lut.OverheadJ <= 0 {
		t.Fatal("overhead must be measured")
	}
	for kind, grid := range lut.Grid {
		for i := 1; i < len(grid); i++ {
			if grid[i].MACs <= grid[i-1].MACs {
				t.Fatalf("%v grid not sorted", nn.LayerKind(kind))
			}
			if grid[i].EnergyJ < grid[i-1].EnergyJ {
				t.Fatalf("%v energy not monotone in MACs", nn.LayerKind(kind))
			}
		}
	}
}

func TestLUTAccuracyComparableToRegression(t *testing.T) {
	m := NewMeasurer(101)
	lut, err := CalibrateLUT(m, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(102))
	var yTrue, yLUT []float64
	for i := 0; i < 100; i++ {
		macs := ZooMACs(rng)
		yTrue = append(yTrue, m.MeasureInference(macs))
		yLUT = append(yLUT, lut.Predict(macs))
	}
	r2 := regress.R2(yTrue, yLUT)
	if r2 < 0.9 {
		t.Fatalf("LUT R² = %.3f — the approach is accurate, just expensive to calibrate", r2)
	}
	if err := regress.MeanAbsRelError(yTrue, yLUT); err > 0.25 {
		t.Fatalf("LUT mean error %.1f%%", err*100)
	}
}

func TestLUTCalibrationCostExceedsRegression(t *testing.T) {
	// The paper's point: the LUT needs a dedicated per-layer campaign,
	// while the regression reuses any 300 whole-model measurements.
	m := NewMeasurer(103)
	lut, err := CalibrateLUT(m, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if lut.Measurements <= 300 {
		t.Fatalf("representative LUT campaign took only %d measurements", lut.Measurements)
	}
}

func TestLUTInterpolationBounds(t *testing.T) {
	m := NewMeasurer(104)
	lut, err := CalibrateLUT(m, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Below-grid and above-grid MAC counts extrapolate proportionally
	// and stay positive and ordered.
	small := lut.Predict(nn.KindMACs{}.With(nn.KindConv, 1_000))
	large := lut.Predict(nn.KindMACs{}.With(nn.KindConv, 10_000_000))
	if small <= 0 || large <= small {
		t.Fatalf("extrapolation broken: %v, %v", small, large)
	}
	if empty := lut.Predict(nn.KindMACs{}); empty != lut.OverheadJ {
		t.Fatalf("empty model must predict the overhead, got %v", empty)
	}
}

func TestLUTValidation(t *testing.T) {
	m := NewMeasurer(105)
	if _, err := CalibrateLUT(m, 1, 1); err == nil {
		t.Fatal("single-point grid must be rejected")
	}
	if _, err := CalibrateLUT(m, 4, 0); err == nil {
		t.Fatal("zero repeats must be rejected")
	}
}
