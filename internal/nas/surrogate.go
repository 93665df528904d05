package nas

import (
	"math"

	"solarml/internal/dataset"
	"solarml/internal/nn"
	"solarml/internal/obs"
)

// SurrogateEvaluator scores candidates with a calibrated analytic accuracy
// model instead of training. It preserves the structure that drives the
// paper's results: accuracy saturates both in sensing information (channels,
// rate, quantization for gestures; frames, features, window for KWS) and in
// model capacity (MACs), so spending energy on sensing fidelity that the
// model cannot exploit — or on capacity the input cannot feed — is wasted.
// That coupling is what eNAS's joint search exploits and what sensing-blind
// baselines miss. Noise is deterministic per candidate fingerprint so
// repeated evaluations agree.
type SurrogateEvaluator struct {
	Energy EnergyModel
	// NoiseSD is the accuracy jitter standard deviation (≈ training
	// variance between runs).
	NoiseSD float64
	// Obs, when set, emits one nas.surrogate event per evaluation with
	// the candidate fingerprint and its scored accuracy/energy. Noise is
	// fingerprint-deterministic, so recording never perturbs a search.
	Obs *obs.Recorder
}

// NewSurrogateEvaluator returns a surrogate with the given energy model and
// the default ±1% accuracy jitter.
func NewSurrogateEvaluator(energy EnergyModel) *SurrogateEvaluator {
	return &SurrogateEvaluator{Energy: energy, NoiseSD: 0.01}
}

// hashNoise derives a deterministic standard-normal-ish value in [-3, 3]
// from a fingerprint (sum of scaled uniform hashes, CLT over 4 words).
func hashNoise(fp uint64) float64 {
	s := 0.0
	x := fp
	for i := 0; i < 4; i++ {
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		s += float64(x%10_000)/10_000 - 0.5
	}
	return s * math.Sqrt(12.0/4.0)
}

// saturate returns 1-exp(-x/scale): a rising information curve.
func saturate(x, scale float64) float64 { return 1 - math.Exp(-x/scale) }

// gestureCeiling is the accuracy achievable with unlimited model capacity
// under the given sensing fidelity.
func gestureCeiling(cfg dataset.GestureConfig) float64 {
	infoN := saturate(float64(cfg.Channels)+0.5, 3.0)
	infoR := saturate(float64(cfg.RateHz), 35)
	infoQ := saturate(cfg.Quant.EffectiveBits(), 3.0)
	info := math.Pow(infoN*infoR*infoQ, 0.5)
	return 0.40 + 0.57*info
}

// kwsCeiling is the KWS analogue over the front-end parameters.
func (s *SurrogateEvaluator) kwsCeiling(c *Candidate) float64 {
	frames := float64(c.Audio.NumFrames(int(dataset.AudioRateHz * dataset.AudioDurationS)))
	infoFrames := saturate(frames, 30)
	infoF := saturate(float64(c.Audio.NumFeatures), 11)
	infoD := 0.88 + 0.12*float64(c.Audio.DurationMS-18)/12.0
	info := math.Pow(infoFrames*infoF, 0.6) * infoD
	return 0.40 + 0.56*info
}

// Evaluate implements Evaluator. It validates the sensing half and reuses
// a bound candidate's analysis and fingerprint; an unbound candidate is
// analyzed (and so bound) first.
func (s *SurrogateEvaluator) Evaluate(c *Candidate) (Result, error) {
	var res Result
	var an nn.Analysis
	var err error
	if c.bind.bound {
		an, err = c.bind.an, c.validateSensing()
	} else {
		an, err = c.Analyze()
	}
	if err != nil {
		return res, err
	}
	res.MACsByKind = an.MACs
	res.TotalMACs = an.MACs.Total()

	var ceil, capScale float64
	if c.Task == TaskGesture {
		ceil = gestureCeiling(c.Gesture)
		capScale = 120_000
	} else {
		ceil = s.kwsCeiling(c)
		capScale = 350_000
	}
	capacity := saturate(float64(res.TotalMACs), capScale)
	// Past ≈10× the capacity scale, extra parameters overfit the limited
	// training set and accuracy degrades slowly — this keeps the λ=0
	// (accuracy-only) search from drifting to arbitrarily large models,
	// as real TrainEval would.
	if over := float64(res.TotalMACs) / (10 * capScale); over > 1 {
		capacity -= 0.05 * math.Log10(over) * math.Log10(over) * 10
		if capacity < 0 {
			capacity = 0
		}
	}
	// Depth bonus: a second nonlinearity helps up to a point.
	depth := 0
	for _, spec := range c.Arch.Body {
		if spec.Kind == nn.KindConv || spec.Kind == nn.KindDWConv || spec.Kind == nn.KindDense {
			depth++
		}
	}
	depthFactor := 0.92 + 0.08*saturate(float64(depth), 1.5)
	acc := 0.10 + (ceil-0.10)*capacity*depthFactor
	fp := c.Fingerprint()
	acc += hashNoise(fp) * s.NoiseSD
	if acc < 0.05 {
		acc = 0.05
	}
	if acc > 0.99 {
		acc = 0.99
	}
	res.Accuracy = acc
	if s.Energy != nil {
		res.SensingJ = s.Energy.SensingEnergy(c)
		res.InferJ = s.Energy.InferenceEnergy(res.MACsByKind)
		res.EnergyJ = res.SensingJ + res.InferJ
	}
	if s.Obs.Enabled() {
		s.Obs.Event("nas.surrogate",
			obs.Int64("fingerprint", int64(fp)),
			obs.F64("accuracy", res.Accuracy),
			obs.F64("energy_j", res.EnergyJ),
			obs.Int64("macs", res.TotalMACs))
	}
	return res, nil
}
