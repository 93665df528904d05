package energymodel

import (
	"math"
	"math/rand"
	"testing"

	"solarml/internal/dataset"
	"solarml/internal/dsp"
	"solarml/internal/mcu"
	"solarml/internal/nn"
	"solarml/internal/quant"
	"solarml/internal/regress"
)

// randomMACs draws one model from the measurement-campaign zoo.
func randomMACs(rng *rand.Rand) nn.KindMACs { return ZooMACs(rng) }

func randomGestureCfg(rng *rand.Rand) dataset.GestureConfig {
	res := quant.Int
	bits := 1 + rng.Intn(8)
	if rng.Intn(2) == 1 {
		res = quant.Float
		bits = 9 + rng.Intn(24)
	}
	return dataset.GestureConfig{
		Channels: 1 + rng.Intn(9),
		RateHz:   10 + rng.Intn(191),
		Quant:    quant.Config{Res: res, Bits: bits},
	}
}

func randomAudioCfg(rng *rand.Rand) dsp.FrontEndConfig {
	return dsp.FrontEndConfig{
		SampleRate:  dataset.AudioRateHz,
		StripeMS:    10 + rng.Intn(21),
		DurationMS:  18 + rng.Intn(13),
		NumFeatures: 10 + rng.Intn(31),
	}
}

func TestFig7LayerEnergiesAt75kMACs(t *testing.T) {
	c := DefaultCoefficients()
	dense := c.TrueEnergy(nn.KindMACs{}.With(nn.KindDense, 75_000))
	conv := c.TrueEnergy(nn.KindMACs{}.With(nn.KindConv, 75_000))
	if math.Abs(dense*1e6-50) > 5 {
		t.Fatalf("Dense at 75k MACs = %.1f µJ, Fig 7 says ≈50", dense*1e6)
	}
	if math.Abs(conv*1e6-175) > 10 {
		t.Fatalf("Conv at 75k MACs = %.1f µJ, Fig 7 says ≈175", conv*1e6)
	}
	if r := conv / dense; math.Abs(r-3.5) > 0.3 {
		t.Fatalf("Conv/Dense ratio %.2f, Fig 7 says ≈3.5", r)
	}
}

func TestTrueEnergyMonotoneInMACs(t *testing.T) {
	c := DefaultCoefficients()
	small := c.TrueEnergy(nn.KindMACs{}.With(nn.KindConv, 10_000))
	big := c.TrueEnergy(nn.KindMACs{}.With(nn.KindConv, 100_000))
	if big <= small {
		t.Fatal("more MACs must cost more")
	}
}

func TestMeasureInferenceNoiseBounded(t *testing.T) {
	m := NewMeasurer(1)
	macs := nn.KindMACs{}.With(nn.KindConv, 100_000)
	truth := m.Coeff.TrueEnergy(macs)
	for i := 0; i < 100; i++ {
		e := m.MeasureInference(macs)
		if math.Abs(e-truth)/truth > 0.5 {
			t.Fatalf("measurement %v too far from truth %v", e, truth)
		}
	}
}

// fitAndScoreInference fits an estimator on 300 train and scores R² on 100
// held-out samples.
func fitAndScoreInference(t *testing.T, reg regress.Model, layerwise bool, seed int64) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := NewMeasurer(seed)
	var train []InferenceSample
	var evalX []nn.KindMACs
	var evalY []float64
	for i := 0; i < 300; i++ {
		macs := randomMACs(rng)
		train = append(train, InferenceSample{MACs: macs, EnergyJ: m.MeasureInference(macs)})
	}
	for i := 0; i < 100; i++ {
		macs := randomMACs(rng)
		evalX = append(evalX, macs)
		evalY = append(evalY, m.MeasureInference(macs))
	}
	est := &InferenceEstimator{Reg: reg, Layerwise: layerwise}
	if err := est.Fit(train); err != nil {
		t.Fatal(err)
	}
	preds := make([]float64, len(evalX))
	for i, macs := range evalX {
		preds[i] = est.Predict(macs)
	}
	return regress.R2(evalY, preds)
}

func TestTable1InferenceEstimatorOrdering(t *testing.T) {
	lrLayer := fitAndScoreInference(t, &regress.Linear{}, true, 10)
	lrTotal := fitAndScoreInference(t, &regress.Linear{}, false, 10)
	logLayer := fitAndScoreInference(t, &regress.Logistic{}, true, 10)
	nrLayer := fitAndScoreInference(t, &regress.Neural{Seed: 3}, true, 10)

	if lrLayer < 0.90 {
		t.Fatalf("layer-wise LR R² = %.3f, Table I says ≈0.96", lrLayer)
	}
	if lrTotal > 0.75 {
		t.Fatalf("total-MACs LR R² = %.3f, Table I says ≈0.46 (must be far below layer-wise)", lrTotal)
	}
	if lrLayer-lrTotal < 0.2 {
		t.Fatalf("layer-wise (%.3f) must clearly beat total-MACs (%.3f)", lrLayer, lrTotal)
	}
	if logLayer > lrLayer-0.3 {
		t.Fatalf("logistic R² = %.3f should collapse vs linear %.3f", logLayer, lrLayer)
	}
	if nrLayer >= lrLayer {
		t.Fatalf("neural R² = %.3f should not beat linear %.3f on linear-ish ground truth", nrLayer, lrLayer)
	}
}

func TestFig9InferenceErrorRates(t *testing.T) {
	// Fig 9b: eNAS layer-wise model ≈12.8% mean error; μNAS total-MACs
	// ≈76.9%. Shapes: ours ≲20%, μNAS several times worse.
	rng := rand.New(rand.NewSource(20))
	m := NewMeasurer(20)
	var train []InferenceSample
	for i := 0; i < 300; i++ {
		macs := randomMACs(rng)
		train = append(train, InferenceSample{MACs: macs, EnergyJ: m.MeasureInference(macs)})
	}
	ours := &InferenceEstimator{Reg: &regress.Linear{}, Layerwise: true}
	munas := &InferenceEstimator{Reg: &regress.Linear{}, Layerwise: false}
	if err := ours.Fit(train); err != nil {
		t.Fatal(err)
	}
	if err := munas.Fit(train); err != nil {
		t.Fatal(err)
	}
	var yTrue, oursPred, munasPred []float64
	for i := 0; i < 60; i++ {
		macs := randomMACs(rng)
		yTrue = append(yTrue, m.MeasureInference(macs))
		oursPred = append(oursPred, ours.Predict(macs))
		munasPred = append(munasPred, munas.Predict(macs))
	}
	oursErr := regress.MeanAbsRelError(yTrue, oursPred)
	munasErr := regress.MeanAbsRelError(yTrue, munasPred)
	if oursErr > 0.25 {
		t.Fatalf("layer-wise mean error %.1f%%, paper ≈12.8%%", oursErr*100)
	}
	if munasErr < 2*oursErr {
		t.Fatalf("total-MACs error %.1f%% should be several times layer-wise %.1f%%",
			munasErr*100, oursErr*100)
	}
}

func TestGestureSensingModelFit(t *testing.T) {
	// Table I: gesture sensing LR R² ≈ 0.92.
	rng := rand.New(rand.NewSource(30))
	m := NewMeasurer(30)
	var train []GestureSample
	for i := 0; i < 300; i++ {
		cfg := randomGestureCfg(rng)
		train = append(train, GestureSample{Cfg: cfg, EnergyJ: m.MeasureGestureSensing(cfg)})
	}
	est := &GestureEstimator{Reg: &regress.Linear{}}
	if err := est.Fit(train); err != nil {
		t.Fatal(err)
	}
	var yTrue, yPred []float64
	for i := 0; i < 100; i++ {
		cfg := randomGestureCfg(rng)
		yTrue = append(yTrue, m.MeasureGestureSensing(cfg))
		yPred = append(yPred, est.Predict(cfg))
	}
	r2 := regress.R2(yTrue, yPred)
	if r2 < 0.8 {
		t.Fatalf("gesture sensing LR R² = %.3f, Table I says ≈0.92", r2)
	}
	if err := regress.MeanAbsRelError(yTrue, yPred); err > 0.12 {
		t.Fatalf("gesture sensing mean error %.1f%%, Fig 9a says ≈3.1%%", err*100)
	}
}

func TestAudioSensingModelFit(t *testing.T) {
	// §IV-A2: audio sensing LR R² ≈ 0.99.
	rng := rand.New(rand.NewSource(40))
	m := NewMeasurer(40)
	var train []AudioSample
	for i := 0; i < 300; i++ {
		cfg := randomAudioCfg(rng)
		train = append(train, AudioSample{Cfg: cfg, EnergyJ: m.MeasureAudioSensing(cfg)})
	}
	est, err := FitAudioLinear(train)
	if err != nil {
		t.Fatal(err)
	}
	var yTrue, yPred []float64
	for i := 0; i < 100; i++ {
		cfg := randomAudioCfg(rng)
		yTrue = append(yTrue, m.MeasureAudioSensing(cfg))
		yPred = append(yPred, est.Predict(cfg))
	}
	if r2 := regress.R2(yTrue, yPred); r2 < 0.85 {
		t.Fatalf("audio sensing LR R² = %.3f, paper says ≈0.99", r2)
	}
}

func TestGestureSensingTrueMonotone(t *testing.T) {
	p := mcu.NRF52840()
	base := dataset.GestureConfig{Channels: 4, RateHz: 100, Quant: quant.Config{Res: quant.Int, Bits: 8}}
	e0 := GestureSensingTrue(p, base)
	moreCh := base
	moreCh.Channels = 8
	if GestureSensingTrue(p, moreCh) <= e0 {
		t.Fatal("more channels must cost more")
	}
	moreRate := base
	moreRate.RateHz = 200
	if GestureSensingTrue(p, moreRate) <= e0 {
		t.Fatal("higher rate must cost more")
	}
	moreBits := base
	moreBits.Quant = quant.Config{Res: quant.Float, Bits: 32}
	if GestureSensingTrue(p, moreBits) <= e0 {
		t.Fatal("higher fidelity must cost more")
	}
}

func TestAudioSensingTrueMonotone(t *testing.T) {
	p := mcu.NRF52840()
	base := dsp.FrontEndConfig{SampleRate: dataset.AudioRateHz, StripeMS: 20, DurationMS: 25, NumFeatures: 13}
	e0 := AudioSensingTrue(p, base)
	moreFeat := base
	moreFeat.NumFeatures = 40
	if AudioSensingTrue(p, moreFeat) <= e0 {
		t.Fatal("more features must cost more")
	}
	sparser := base
	sparser.StripeMS = 30
	if AudioSensingTrue(p, sparser) >= e0 {
		t.Fatal("longer stripe must cost less")
	}
}

func TestEstimatorPredictClampsNegative(t *testing.T) {
	est := &InferenceEstimator{Reg: &regress.Linear{}, Layerwise: false}
	err := est.Fit([]InferenceSample{
		{MACs: nn.KindMACs{}.With(nn.KindConv, 100_000), EnergyJ: 1e-4},
		{MACs: nn.KindMACs{}.With(nn.KindConv, 200_000), EnergyJ: 3e-4},
		{MACs: nn.KindMACs{}.With(nn.KindConv, 300_000), EnergyJ: 5e-4},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Extrapolating to zero MACs would go negative; Predict must clamp.
	if p := est.Predict(nn.KindMACs{}); p < 0 {
		t.Fatalf("negative prediction %v", p)
	}
}

func TestFitRejectsEmpty(t *testing.T) {
	if err := (&InferenceEstimator{}).Fit(nil); err == nil {
		t.Fatal("empty inference fit must fail")
	}
	if err := (&GestureEstimator{}).Fit(nil); err == nil {
		t.Fatal("empty gesture fit must fail")
	}
	if _, err := FitAudioLinear(nil); err == nil {
		t.Fatal("empty audio fit must fail")
	}
}

func TestDefaultRegIsLinear(t *testing.T) {
	est := &InferenceEstimator{Layerwise: true}
	err := est.Fit([]InferenceSample{
		{MACs: nn.KindMACs{}.With(nn.KindConv, 1000), EnergyJ: 1e-5},
		{MACs: nn.KindMACs{}.With(nn.KindConv, 2000), EnergyJ: 2e-5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if est.Reg.Name() != "LR" {
		t.Fatalf("default regressor %s, want LR", est.Reg.Name())
	}
}
