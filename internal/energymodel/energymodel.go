// Package energymodel implements the paper's two energy models and the
// measurement ground truth they are fit against.
//
// Inference: the paper observes (Fig 7) that at equal MAC counts different
// layer types cost very different energy (Dense ≈50 µJ vs Conv ≈175 µJ at
// 75 k MACs), so eNAS fits one coefficient per layer kind:
//
//	E_M = a₁·MAC_AvgPool + a₂·MAC_MaxPool + a₃·MAC_Conv
//	    + a₄·MAC_Dense + a₅·MAC_Norm + a₆·MAC_DWConv + b
//
// against measured energies, while μNAS/HarvNet use a single total-MACs
// model E_M = a·MACs + b. The ground-truth simulator below includes the
// per-kind cost differences plus a mild super-linear memory-pressure term
// and measurement noise, which is what separates the estimators in Table I.
//
// Sensing: for gestures the model is fit over (n, r, b, q) — channels,
// rate, resolution family, quantization depth; for audio over (s, d, f) —
// window stripe, window duration, feature count.
package energymodel

import (
	"fmt"
	"math"
	"math/rand"

	"solarml/internal/dataset"
	"solarml/internal/dsp"
	"solarml/internal/mcu"
	"solarml/internal/nn"
	"solarml/internal/obs/energy"
	"solarml/internal/quant"
	"solarml/internal/regress"
)

// Coefficients are the ground-truth per-kind energy costs of the simulated
// nRF52840, calibrated to Fig 7 (Dense 50 µJ, Conv 175 µJ at 75 k MACs
// including the b overhead).
type Coefficients struct {
	// PerMACJ is each layer kind's J/MAC cost; only the compute kinds
	// carry one.
	PerMACJ [nn.NumLayerKinds]float64
	// OverheadJ is the fixed inference setup cost (b).
	OverheadJ float64
	// MemPressureGamma scales the super-linear cost growth of large
	// layers (cache/RAM pressure), the structural nonlinearity that keeps
	// even the layer-wise linear model from a perfect fit.
	MemPressureGamma float64
	// MemPressureMACs is the layer size where pressure starts to matter.
	MemPressureMACs float64
}

// defaultCoefficients is the calibrated ground truth.
var defaultCoefficients = Coefficients{
	PerMACJ: [nn.NumLayerKinds]float64{
		nn.KindConv:    2.20e-9,
		nn.KindDWConv:  1.80e-9,
		nn.KindDense:   0.533e-9,
		nn.KindMaxPool: 0.75e-9,
		nn.KindAvgPool: 0.65e-9,
		nn.KindNorm:    1.00e-9,
	},
	OverheadJ:        10e-6,
	MemPressureGamma: 0.12,
	MemPressureMACs:  200_000,
}

// DefaultCoefficients returns a copy of the calibrated ground truth.
func DefaultCoefficients() Coefficients { return defaultCoefficients }

// TrueEnergy returns the noise-free inference energy for a per-kind MAC
// breakdown. Kinds are accumulated in nn.ComputeKinds order, which fixes
// the floating-point sum.
func (c Coefficients) TrueEnergy(macs nn.KindMACs) float64 {
	e := c.OverheadJ
	for _, kind := range nn.ComputeKinds() {
		m := macs.Of(kind)
		if m == 0 {
			continue
		}
		pressure := 1 + c.MemPressureGamma*math.Log10(1+float64(m)/c.MemPressureMACs)
		e += c.PerMACJ[kind] * float64(m) * pressure
	}
	return e
}

// Measurer produces "measured" energies: ground truth plus multiplicative
// noise, standing in for the 300 OTII measurement campaigns of §IV-A.
// Inference measurements carry more spread than sensing measurements:
// inference bursts are short (milliseconds) while sensing integrates over
// the whole gesture/clip, averaging supply noise out.
type Measurer struct {
	Coeff            Coefficients
	Profile          mcu.PowerProfile
	InferNoiseFrac   float64
	SensingNoiseFrac float64
	// Ledger, when set, books every measurement's energy into the joule
	// ledger (infer/sense accounts) — a measurement campaign then shows up
	// in the same accounting as a live run. The rng stream is untouched,
	// so seeded campaigns stay bit-identical with or without a ledger.
	Ledger *energy.Ledger
	rng    *rand.Rand
}

// NewMeasurer returns a measurer with the calibrated ground truth.
func NewMeasurer(seed int64) *Measurer {
	return &Measurer{
		Coeff:            DefaultCoefficients(),
		Profile:          mcu.NRF52840(),
		InferNoiseFrac:   0.08,
		SensingNoiseFrac: 0.02,
		rng:              rand.New(rand.NewSource(seed)),
	}
}

// noisy applies multiplicative measurement noise.
func (m *Measurer) noisy(e, frac float64) float64 {
	return e * (1 + m.rng.NormFloat64()*frac)
}

// MeasureInference returns a measured inference energy for a network's
// per-kind MAC breakdown.
func (m *Measurer) MeasureInference(macs nn.KindMACs) float64 {
	e := m.noisy(m.Coeff.TrueEnergy(macs), m.InferNoiseFrac)
	m.Ledger.Charge(energy.AccountInfer, e)
	return e
}

// GestureSensingTrue returns the noise-free sensing energy of a gesture
// configuration over one gesture: tickless base power plus per-sample ADC
// conversions plus the normalization pre-processing.
func GestureSensingTrue(p mcu.PowerProfile, cfg dataset.GestureConfig) float64 {
	bits := cfg.Quant.EffectiveBits()
	perScan := p.ScanOverheadJ + float64(cfg.Channels)*p.ADCSampleBaseJ + bits*p.ADCSamplePerBitJ
	sampling := dataset.GestureDurationS * (p.TicklessBaseW + float64(cfg.RateHz)*perScan)
	// Normalization + quantization pass: ≈3 ops per captured sample
	// (whole samples, matching the device trace accounting).
	samples := float64(int64(float64(cfg.Channels) * float64(cfg.RateHz) * dataset.GestureDurationS))
	return sampling + 3*samples*p.CPUPerMACJ
}

// MeasureGestureSensing returns a measured gesture sensing energy.
func (m *Measurer) MeasureGestureSensing(cfg dataset.GestureConfig) float64 {
	e := m.noisy(GestureSensingTrue(m.Profile, cfg), m.SensingNoiseFrac)
	m.Ledger.Charge(energy.AccountSense, e)
	return e
}

// AudioSensingTrue returns the noise-free sensing energy of a KWS front-end
// configuration over one clip: microphone capture plus MFCC processing.
func AudioSensingTrue(p mcu.PowerProfile, cfg dsp.FrontEndConfig) float64 {
	capture := dataset.AudioDurationS * (p.TicklessBaseW + p.MicW)
	procMACs := cfg.FrontEndMACs(int(dataset.AudioRateHz * dataset.AudioDurationS))
	return capture + float64(procMACs)*p.DSPPerMACJ
}

// MeasureAudioSensing returns a measured audio sensing energy.
func (m *Measurer) MeasureAudioSensing(cfg dsp.FrontEndConfig) float64 {
	e := m.noisy(AudioSensingTrue(m.Profile, cfg), m.SensingNoiseFrac)
	m.Ledger.Charge(energy.AccountSense, e)
	return e
}

// --- Feature extractors (the regression proxies of Table I) ---

// numComputeKinds is len(nn.ComputeKinds()), the width of the layer-wise
// proxy.
const numComputeKinds = 6

// layerwiseFeatures returns per-kind MACs in nn.ComputeKinds order, the
// eNAS proxy.
func layerwiseFeatures(macs nn.KindMACs) (x [numComputeKinds]float64) {
	for i, k := range nn.ComputeKinds() {
		x[i] = float64(macs.Of(k))
	}
	return x
}

// gestureFeatures returns the (n, r, b, q) proxy of the sensing model.
func gestureFeatures(cfg dataset.GestureConfig) [4]float64 {
	b := 0.0
	if cfg.Quant.Res == quant.Float {
		b = 1
	}
	return [4]float64{float64(cfg.Channels), float64(cfg.RateHz), b, float64(cfg.Quant.Bits)}
}

// audioFeatures returns the (s, d, f) proxy of the audio sensing model.
func audioFeatures(cfg dsp.FrontEndConfig) [3]float64 {
	return [3]float64{float64(cfg.StripeMS), float64(cfg.DurationMS), float64(cfg.NumFeatures)}
}

// fitSamples fits reg on one feature row per measured sample.
func fitSamples[S any](reg regress.Model, samples []S, row func(S) (x []float64, energyJ float64)) error {
	if len(samples) == 0 {
		return fmt.Errorf("energymodel: no samples")
	}
	X := make([][]float64, len(samples))
	y := make([]float64, len(samples))
	for i, s := range samples {
		X[i], y[i] = row(s)
	}
	return reg.Fit(X, y)
}

// --- Fitted estimators (any regression family, for Table I) ---

// InferenceSample pairs a MAC breakdown with its measured energy.
type InferenceSample struct {
	MACs    nn.KindMACs
	EnergyJ float64
}

// InferenceEstimator is a fitted inference energy model.
type InferenceEstimator struct {
	// Reg is the regression family; nil defaults to linear.
	Reg regress.Model
	// Layerwise selects the eNAS per-kind proxy; false selects the
	// μNAS/HarvNet total-MACs proxy.
	Layerwise bool
}

func (e *InferenceEstimator) features(macs nn.KindMACs) []float64 {
	if e.Layerwise {
		x := layerwiseFeatures(macs)
		return x[:]
	}
	return []float64{float64(macs.Total())}
}

// Fit trains the estimator on measured samples.
func (e *InferenceEstimator) Fit(samples []InferenceSample) error {
	if e.Reg == nil {
		e.Reg = &regress.Linear{}
	}
	return fitSamples(e.Reg, samples, func(s InferenceSample) ([]float64, float64) {
		return e.features(s.MACs), s.EnergyJ
	})
}

// Predict estimates the inference energy of a MAC breakdown.
func (e *InferenceEstimator) Predict(macs nn.KindMACs) float64 {
	return clampZero(e.Reg.Predict(e.features(macs)))
}

// GestureSample pairs a gesture sensing configuration with its measurement.
type GestureSample struct {
	Cfg     dataset.GestureConfig
	EnergyJ float64
}

// GestureEstimator is a fitted gesture sensing energy model over (n,r,b,q).
type GestureEstimator struct {
	Reg regress.Model
}

// Fit trains the estimator on measured samples.
func (e *GestureEstimator) Fit(samples []GestureSample) error {
	if e.Reg == nil {
		e.Reg = &regress.Linear{}
	}
	return fitSamples(e.Reg, samples, func(s GestureSample) ([]float64, float64) {
		x := gestureFeatures(s.Cfg)
		return x[:], s.EnergyJ
	})
}

// Predict estimates the sensing energy of a configuration.
func (e *GestureEstimator) Predict(cfg dataset.GestureConfig) float64 {
	x := gestureFeatures(cfg)
	return clampZero(e.Reg.Predict(x[:]))
}

// AudioSample pairs an audio front-end configuration with its measurement.
type AudioSample struct {
	Cfg     dsp.FrontEndConfig
	EnergyJ float64
}

// --- Frozen linear models (what the searches score with) ---
//
// CalibrateEnergy fits regress.Linear and freezes each fit into a
// coefficient value. Predict adds the intercept, then each coefficient
// times its feature in feature order, then clamps at 0 — Linear.Predict's
// arithmetic and the estimators' clamp — so a frozen model predicts bit
// for bit what its fit does, without a feature slice or an interface call.

// InferenceLinear is a frozen linear inference model.
type InferenceLinear struct {
	// Coef holds the layer-wise proxy's J/MAC weight of each kind in
	// nn.ComputeKinds order; the total-MACs proxy uses Coef[0] alone.
	Coef      [numComputeKinds]float64
	Intercept float64
	// Layerwise selects the eNAS per-kind proxy; false selects the
	// μNAS/HarvNet total-MACs proxy.
	Layerwise bool
}

// FitInferenceLinear fits the linear inference model on measured samples
// and freezes it.
func FitInferenceLinear(samples []InferenceSample, layerwise bool) (InferenceLinear, error) {
	var lin regress.Linear
	if err := (&InferenceEstimator{Reg: &lin, Layerwise: layerwise}).Fit(samples); err != nil {
		return InferenceLinear{}, err
	}
	m := InferenceLinear{Intercept: lin.Intercept, Layerwise: layerwise}
	copy(m.Coef[:], lin.Coef)
	return m, nil
}

// Predict estimates the inference energy of a MAC breakdown.
func (m *InferenceLinear) Predict(macs nn.KindMACs) float64 {
	if !m.Layerwise {
		x := [1]float64{float64(macs.Total())}
		return predictLinear(m.Intercept, m.Coef[:1], x[:])
	}
	x := layerwiseFeatures(macs)
	return predictLinear(m.Intercept, m.Coef[:], x[:])
}

// GestureLinear is a frozen linear gesture sensing model over (n, r, b, q).
type GestureLinear struct {
	Coef      [4]float64
	Intercept float64
}

// FitGestureLinear fits the linear gesture sensing model on measured
// samples and freezes it.
func FitGestureLinear(samples []GestureSample) (GestureLinear, error) {
	var lin regress.Linear
	if err := (&GestureEstimator{Reg: &lin}).Fit(samples); err != nil {
		return GestureLinear{}, err
	}
	m := GestureLinear{Intercept: lin.Intercept}
	copy(m.Coef[:], lin.Coef)
	return m, nil
}

// Predict estimates the sensing energy of a configuration.
func (m *GestureLinear) Predict(cfg dataset.GestureConfig) float64 {
	x := gestureFeatures(cfg)
	return predictLinear(m.Intercept, m.Coef[:], x[:])
}

// AudioLinear is a frozen linear audio sensing model over (s, d, f).
type AudioLinear struct {
	Coef      [3]float64
	Intercept float64
}

// FitAudioLinear fits the linear audio sensing model on measured samples
// and freezes it.
func FitAudioLinear(samples []AudioSample) (AudioLinear, error) {
	var lin regress.Linear
	err := fitSamples(&lin, samples, func(s AudioSample) ([]float64, float64) {
		x := audioFeatures(s.Cfg)
		return x[:], s.EnergyJ
	})
	if err != nil {
		return AudioLinear{}, err
	}
	m := AudioLinear{Intercept: lin.Intercept}
	copy(m.Coef[:], lin.Coef)
	return m, nil
}

// Predict estimates the sensing energy of a front-end configuration.
func (m *AudioLinear) Predict(cfg dsp.FrontEndConfig) float64 {
	x := audioFeatures(cfg)
	return predictLinear(m.Intercept, m.Coef[:], x[:])
}

// predictLinear is regress.Linear.Predict over coef and x, clamped at 0.
func predictLinear(intercept float64, coef, x []float64) float64 {
	s := intercept
	for i, c := range coef {
		s += c * x[i]
	}
	return clampZero(s)
}

// clampZero clamps a predicted energy at 0 (a NaN passes through).
func clampZero(p float64) float64 {
	if p < 0 {
		p = 0
	}
	return p
}
