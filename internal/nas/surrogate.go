package nas

import (
	"math"

	"solarml/internal/dataset"
	"solarml/internal/dsp"
	"solarml/internal/nn"
	"solarml/internal/obs"
	"solarml/internal/quant"
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

// The accuracy model's terms over discrete parameters: the sensing axes of
// Table II, the frame count they imply, and the body's compute depth.
func channelInfo(n int) float64  { return saturate(float64(n)+0.5, 3.0) }
func rateInfo(r int) float64     { return saturate(float64(r), 35) }
func frameInfo(n int) float64    { return saturate(float64(n), 30) }
func featureInfo(f int) float64  { return saturate(float64(f), 11) }
func durationInfo(d int) float64 { return 0.88 + 0.12*float64(d-18)/12.0 }
func depthFactor(d int) float64  { return 0.92 + 0.08*saturate(float64(d), 1.5) }

func intQuantInfo(bits int) float64 {
	return saturate(quant.Config{Res: quant.Int, Bits: bits}.EffectiveBits(), 3.0)
}

func floatQuantInfo(bits int) float64 {
	return saturate(quant.Config{Res: quant.Float, Bits: bits}.EffectiveBits(), 3.0)
}

// intTable holds f(i) for the integers i in [lo, lo+len(v)), computed once
// with f itself, so a lookup returns f's bits.
type intTable struct {
	lo int
	v  []float64
	f  func(int) float64
}

// tabulate tabulates f over the range bounds returns.
func tabulate(bounds func() (int, int), f func(int) float64) *intTable {
	lo, hi := bounds()
	t := &intTable{lo: lo, v: make([]float64, hi-lo+1), f: f}
	for i := range t.v {
		t.v[i] = f(lo + i)
	}
	return t
}

// at returns f(i): from the table inside its range, from f outside it.
func (t *intTable) at(i int) float64 {
	if j := uint(i - t.lo); j < uint(len(t.v)) {
		return t.v[j]
	}
	return t.f(i)
}

// clipSamples is the length of one KWS clip in samples.
const clipSamples = int(dataset.AudioRateHz * dataset.AudioDurationS)

// The ceiling tables span Table II's ranges, and bodies of up to 16
// compute layers. They are built at package initialization, so neither
// CalibrateEnergy nor NewSurrogateEvaluator pays for them.
var (
	channelInfos    = tabulate(dataset.ChannelBounds, channelInfo)
	rateInfos       = tabulate(dataset.RateBounds, rateInfo)
	intQuantInfos   = tabulate(quant.Int.Bounds, intQuantInfo)
	floatQuantInfos = tabulate(quant.Float.Bounds, floatQuantInfo)
	frameInfos      = tabulate(frameBounds, frameInfo)
	featureInfos    = tabulate(dsp.FeatureBounds, featureInfo)
	durationInfos   = tabulate(dsp.DurationBounds, durationInfo)
	depthFactors    = tabulate(func() (int, int) { return 0, 16 }, depthFactor)
)

// frameBounds is the range of frame counts Table II's front ends cut from
// one clip: the fewest at the longest stripe and window, the most at the
// shortest.
func frameBounds() (lo, hi int) {
	sLo, sHi := dsp.StripeBounds()
	dLo, dHi := dsp.DurationBounds()
	frames := func(stripe, dur int) int {
		fe := dsp.FrontEndConfig{SampleRate: dataset.AudioRateHz, StripeMS: stripe, DurationMS: dur}
		return fe.NumFrames(clipSamples)
	}
	return frames(sHi, dHi), frames(sLo, dLo)
}

// gestureCeiling is the accuracy achievable with unlimited model capacity
// under the given sensing fidelity.
func gestureCeiling(cfg dataset.GestureConfig) float64 {
	infoN := channelInfos.at(cfg.Channels)
	infoR := rateInfos.at(cfg.RateHz)
	var infoQ float64
	if cfg.Quant.Res == quant.Int {
		infoQ = intQuantInfos.at(cfg.Quant.Bits)
	} else {
		infoQ = floatQuantInfos.at(cfg.Quant.Bits) // EffectiveBits' non-Int branch
	}
	info := math.Pow(infoN*infoR*infoQ, 0.5)
	return 0.40 + 0.57*info
}

// kwsCeiling is the KWS analogue over the front-end parameters.
func kwsCeiling(cfg dsp.FrontEndConfig) float64 {
	infoFrames := frameInfos.at(cfg.NumFrames(clipSamples))
	infoF := featureInfos.at(cfg.NumFeatures)
	infoD := durationInfos.at(cfg.DurationMS)
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
		ceil = kwsCeiling(c.Audio)
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
	acc := 0.10 + (ceil-0.10)*capacity*depthFactors.at(depth)
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
