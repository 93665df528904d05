// Package experiments implements the paper's evaluation campaign: one
// function per table and figure, returning structured results that the
// solarml CLI, the benchmark harness, and the tests all share. Each
// function is deterministic given its seed.
package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"solarml/internal/energymodel"
	"solarml/internal/nas"
	"solarml/internal/nn"
	"solarml/internal/regress"
)

// Table1Row is one cell block of Table I: an energy proxy × regression
// method combination and its held-out R².
type Table1Row struct {
	Target string // "inference" or "sensing"
	Proxy  string // "MACs", "layer-wise MACs", "n,r,b,q", "s,d,f"
	Method string // LR, LogR, NR
	R2     float64
}

// String renders the row.
func (r Table1Row) String() string {
	return fmt.Sprintf("%-9s  %-16s  %-4s  R²=%6.3f", r.Target, r.Proxy, r.Method, r.R2)
}

// randomArchMACs draws one model from the layer-diverse measurement zoo —
// the paper's campaign measured "300 models with different layers and
// numbers of MACs", deliberately varied in layer composition rather than
// sampled from the NAS space.
func randomArchMACs(space *nas.Space, rng *rand.Rand) nn.KindMACs {
	return energymodel.ZooMACs(rng)
}

// Table1 reproduces Table I: it runs the 300-measurement campaigns for the
// inference and sensing energy models and scores every proxy × method
// combination on 100 held-out measurements.
func Table1(seed int64) []Table1Row {
	rng := rand.New(rand.NewSource(seed))
	m := energymodel.NewMeasurer(seed + 1)
	gestureSpace := nas.GestureSpace()

	// Inference campaign.
	var train []energymodel.InferenceSample
	for i := 0; i < 300; i++ {
		macs := randomArchMACs(gestureSpace, rng)
		train = append(train, energymodel.InferenceSample{MACs: macs, EnergyJ: m.MeasureInference(macs)})
	}
	var evalMACs []nn.KindMACs
	var evalY []float64
	for i := 0; i < 100; i++ {
		macs := randomArchMACs(gestureSpace, rng)
		evalMACs = append(evalMACs, macs)
		evalY = append(evalY, m.MeasureInference(macs))
	}
	scoreInference := func(reg regress.Model, layerwise bool) float64 {
		est := &energymodel.InferenceEstimator{Reg: reg, Layerwise: layerwise}
		if err := est.Fit(train); err != nil {
			panic(err)
		}
		preds := make([]float64, len(evalMACs))
		for i, macs := range evalMACs {
			preds[i] = est.Predict(macs)
		}
		return regress.R2(evalY, preds)
	}

	// Sensing campaign (gesture).
	var gTrain []energymodel.GestureSample
	for i := 0; i < 300; i++ {
		c := gestureSpace.RandomCandidate(rng)
		gTrain = append(gTrain, energymodel.GestureSample{Cfg: c.Gesture, EnergyJ: m.MeasureGestureSensing(c.Gesture)})
	}
	var gEval []energymodel.GestureSample
	for i := 0; i < 100; i++ {
		c := gestureSpace.RandomCandidate(rng)
		gEval = append(gEval, energymodel.GestureSample{Cfg: c.Gesture, EnergyJ: m.MeasureGestureSensing(c.Gesture)})
	}
	scoreSensing := func(reg regress.Model) float64 {
		est := &energymodel.GestureEstimator{Reg: reg}
		if err := est.Fit(gTrain); err != nil {
			panic(err)
		}
		var yTrue, yPred []float64
		for _, s := range gEval {
			yTrue = append(yTrue, s.EnergyJ)
			yPred = append(yPred, est.Predict(s.Cfg))
		}
		return regress.R2(yTrue, yPred)
	}

	// Extension row: the Micronets/MCUNet per-layer lookup table, which
	// is accurate but needs its own dedicated measurement campaign.
	lut, err := energymodel.CalibrateLUT(m, 8, 4)
	if err != nil {
		panic(err)
	}
	lutPreds := make([]float64, len(evalMACs))
	for i, macs := range evalMACs {
		lutPreds[i] = lut.Predict(macs)
	}
	lutR2 := regress.R2(evalY, lutPreds)

	return []Table1Row{
		{"inference", "MACs (µNAS)", "LR", scoreInference(&regress.Linear{}, false)},
		{"inference", "layer-wise MACs", "LR", scoreInference(&regress.Linear{}, true)},
		{"inference", "layer-wise MACs", "LogR", scoreInference(&regress.Logistic{}, true)},
		{"inference", "layer-wise MACs", "NR", scoreInference(&regress.Neural{Seed: seed}, true)},
		{"inference", "per-layer LUT", "interp", lutR2},
		{"sensing", "n,r,b,q", "LR", scoreSensing(&regress.Linear{})},
		{"sensing", "n,r,b,q", "LogR", scoreSensing(&regress.Logistic{})},
		{"sensing", "n,r,b,q", "NR", scoreSensing(&regress.Neural{Seed: seed})},
	}
}

// Fig7Point is one bar of Fig 7: the measured energy of a single layer of
// the given kind at the given MAC count.
type Fig7Point struct {
	Kind    nn.LayerKind
	MACs    int64
	EnergyJ float64
}

// Fig7 reproduces Fig 7: per-layer-kind energy at equal MAC counts.
func Fig7() []Fig7Point {
	coeff := energymodel.DefaultCoefficients()
	var out []Fig7Point
	for _, macs := range []int64{25_000, 75_000, 150_000} {
		for _, kind := range nn.ComputeKinds() {
			out = append(out, Fig7Point{
				Kind: kind, MACs: macs,
				EnergyJ: coeff.TrueEnergy(nn.KindMACs{}.With(kind, macs)),
			})
		}
	}
	return out
}

// Fig9Result holds the energy-model validation of Fig 9: per-sample
// relative errors for the sensing model and the two inference models, and
// their means.
type Fig9Result struct {
	SensingErrs []float64
	OursErrs    []float64
	MuNASErrs   []float64
	SensingMean float64
	OursMean    float64
	MuNASMean   float64
}

// ErrCDF returns the fraction of errs at or below x.
func ErrCDF(errs []float64, x float64) float64 {
	n := 0
	for _, e := range errs {
		if e <= x {
			n++
		}
	}
	return float64(n) / float64(len(errs))
}

// Percentile returns the p-quantile (0..1) of errs.
func Percentile(errs []float64, p float64) float64 {
	s := append([]float64(nil), errs...)
	sort.Float64s(s)
	idx := int(p * float64(len(s)-1))
	return s[idx]
}

// Fig9 reproduces Fig 9: fit the sensing and inference energy models on 300
// measurements each, then validate on 60 fresh measurements.
func Fig9(seed int64) Fig9Result {
	rng := rand.New(rand.NewSource(seed))
	m := energymodel.NewMeasurer(seed + 1)
	space := nas.GestureSpace()

	// Fit.
	var inferTrain []energymodel.InferenceSample
	var senseTrain []energymodel.GestureSample
	for i := 0; i < 300; i++ {
		macs := randomArchMACs(space, rng)
		inferTrain = append(inferTrain, energymodel.InferenceSample{MACs: macs, EnergyJ: m.MeasureInference(macs)})
		c := space.RandomCandidate(rng)
		senseTrain = append(senseTrain, energymodel.GestureSample{Cfg: c.Gesture, EnergyJ: m.MeasureGestureSensing(c.Gesture)})
	}
	ours, err1 := energymodel.FitInferenceLinear(inferTrain, true)
	munas, err2 := energymodel.FitInferenceLinear(inferTrain, false)
	sense, err3 := energymodel.FitGestureLinear(senseTrain)
	for _, err := range []error{err1, err2, err3} {
		if err != nil {
			panic(err)
		}
	}

	// Validate on 60 fresh measurements each (§V-C).
	var res Fig9Result
	var yInfer, pOurs, pMuNAS []float64
	var ySense, pSense []float64
	for i := 0; i < 60; i++ {
		macs := randomArchMACs(space, rng)
		yInfer = append(yInfer, m.MeasureInference(macs))
		pOurs = append(pOurs, ours.Predict(macs))
		pMuNAS = append(pMuNAS, munas.Predict(macs))
		c := space.RandomCandidate(rng)
		ySense = append(ySense, m.MeasureGestureSensing(c.Gesture))
		pSense = append(pSense, sense.Predict(c.Gesture))
	}
	res.SensingErrs = regress.AbsRelErrors(ySense, pSense)
	res.OursErrs = regress.AbsRelErrors(yInfer, pOurs)
	res.MuNASErrs = regress.AbsRelErrors(yInfer, pMuNAS)
	res.SensingMean = regress.MeanAbsRelError(ySense, pSense)
	res.OursMean = regress.MeanAbsRelError(yInfer, pOurs)
	res.MuNASMean = regress.MeanAbsRelError(yInfer, pMuNAS)
	return res
}
