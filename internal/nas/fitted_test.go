package nas

import (
	"math"
	"math/rand"
	"testing"

	"solarml/internal/dataset"
	"solarml/internal/dsp"
	"solarml/internal/energymodel"
	"solarml/internal/nn"
	"solarml/internal/quant"
	"solarml/internal/regress"
)

// linearFit is a regress.Linear fit over feature rows the test builds
// itself, predicting as the energy estimators do: clamped at 0.
type linearFit struct{ regress.Linear }

func fitRows[S any](t *testing.T, samples []S, row func(S) ([]float64, float64)) *linearFit {
	t.Helper()
	X := make([][]float64, len(samples))
	y := make([]float64, len(samples))
	for i, s := range samples {
		X[i], y[i] = row(s)
	}
	var f linearFit
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	return &f
}

func (f *linearFit) predict(x ...float64) float64 {
	if p := f.Predict(x); !(p < 0) {
		return p
	}
	return 0
}

func macsRow(macs nn.KindMACs, layerwise bool) []float64 {
	if !layerwise {
		return []float64{float64(macs.Total())}
	}
	var x []float64
	for _, k := range nn.ComputeKinds() {
		x = append(x, float64(macs.Of(k)))
	}
	return x
}

func gestureRow(g dataset.GestureConfig) []float64 {
	b := 0.0
	if g.Quant.Res == quant.Float {
		b = 1
	}
	return []float64{float64(g.Channels), float64(g.RateHz), b, float64(g.Quant.Bits)}
}

func audioRow(a dsp.FrontEndConfig) []float64 {
	return []float64{float64(a.StripeMS), float64(a.DurationMS), float64(a.NumFeatures)}
}

// TestFrozenEnergyMatchesLinearFit pins CalibrateEnergy's frozen models to
// regress.Linear fits of the same campaign, bit for bit: over the
// campaign's own draws and 1,000 fresh random candidates, for the
// layer-wise and the total-MACs inference proxy of both tasks.
func TestFrozenEnergyMatchesLinearFit(t *testing.T) {
	for _, space := range []*Space{GestureSpace(), KWSSpace()} {
		for _, layerwise := range []bool{true, false} {
			fe, err := CalibrateEnergy(space, 300, layerwise, true, 1)
			if err != nil {
				t.Fatal(err)
			}
			camp, err := measureCampaign(space, 300, true, 1)
			if err != nil {
				t.Fatal(err)
			}
			infer := fitRows(t, camp.infer, func(s energymodel.InferenceSample) ([]float64, float64) {
				return macsRow(s.MACs, layerwise), s.EnergyJ
			})
			var sense func(c *Candidate) float64
			if space.Task == TaskGesture {
				f := fitRows(t, camp.gesture, func(s energymodel.GestureSample) ([]float64, float64) {
					return gestureRow(s.Cfg), s.EnergyJ
				})
				sense = func(c *Candidate) float64 { return f.predict(gestureRow(c.Gesture)...) }
			} else {
				f := fitRows(t, camp.audio, func(s energymodel.AudioSample) ([]float64, float64) {
					return audioRow(s.Cfg), s.EnergyJ
				})
				sense = func(c *Candidate) float64 { return f.predict(audioRow(c.Audio)...) }
			}
			check := func(what string, got, want float64) {
				t.Helper()
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s layerwise=%v %s: frozen %.17g, fit %.17g", space.Task, layerwise, what, got, want)
				}
			}
			for i, s := range camp.infer {
				check("campaign inference", fe.InferenceEnergy(s.MACs), infer.predict(macsRow(s.MACs, layerwise)...))
				c := &Candidate{Task: space.Task}
				if space.Task == TaskGesture {
					c.Gesture = camp.gesture[i].Cfg
				} else {
					c.Audio = camp.audio[i].Cfg
				}
				check("campaign sensing", fe.SensingEnergy(c), sense(c))
			}
			rng := rand.New(rand.NewSource(2))
			for range 1000 {
				c := space.RandomCandidate(rng)
				macs := c.bind.an.MACs
				check("random inference", fe.InferenceEnergy(macs), infer.predict(macsRow(macs, layerwise)...))
				check("random sensing", fe.SensingEnergy(c), sense(c))
			}
		}
	}
}

// TestCeilingTablesMatchFormulas pins the table-driven accuracy terms to
// the expressions they tabulate: every table entry and the fallback just
// outside each range, the depth factor, and both ceilings over every
// Table II sensing configuration, against the formulas alone.
func TestCeilingTablesMatchFormulas(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for name, tab := range map[string]*intTable{
		"channel": channelInfos, "rate": rateInfos, "int quant": intQuantInfos,
		"float quant": floatQuantInfos, "frame": frameInfos, "feature": featureInfos,
		"duration": durationInfos, "depth": depthFactors,
	} {
		for i := tab.lo - 3; i < tab.lo+len(tab.v)+3; i++ {
			if got, want := tab.at(i), tab.f(i); !same(got, want) {
				t.Errorf("%s table at %d: %.17g, formula %.17g", name, i, got, want)
			}
		}
	}
	for d := -1; d <= 20; d++ {
		if got, want := depthFactors.at(d), 0.92+0.08*saturate(float64(d), 1.5); !same(got, want) {
			t.Errorf("depth factor at %d: %.17g, formula %.17g", d, got, want)
		}
	}
	gestureFormula := func(cfg dataset.GestureConfig) float64 {
		infoN := saturate(float64(cfg.Channels)+0.5, 3.0)
		infoR := saturate(float64(cfg.RateHz), 35)
		infoQ := saturate(cfg.Quant.EffectiveBits(), 3.0)
		return 0.40 + 0.57*math.Pow(infoN*infoR*infoQ, 0.5)
	}
	cLo, cHi := dataset.ChannelBounds()
	rLo, rHi := dataset.RateBounds()
	for n := cLo; n <= cHi; n++ {
		for r := rLo; r <= rHi; r++ {
			for _, res := range []quant.Resolution{quant.Int, quant.Float} {
				qLo, qHi := res.Bounds()
				for q := qLo; q <= qHi; q++ {
					cfg := dataset.GestureConfig{Channels: n, RateHz: r, Quant: quant.Config{Res: res, Bits: q}}
					if got, want := gestureCeiling(cfg), gestureFormula(cfg); !same(got, want) {
						t.Fatalf("gesture ceiling %+v: %.17g, formula %.17g", cfg, got, want)
					}
				}
			}
		}
	}
	kwsFormula := func(cfg dsp.FrontEndConfig) float64 {
		frames := float64(cfg.NumFrames(int(dataset.AudioRateHz * dataset.AudioDurationS)))
		infoD := 0.88 + 0.12*float64(cfg.DurationMS-18)/12.0
		info := math.Pow(saturate(frames, 30)*saturate(float64(cfg.NumFeatures), 11), 0.6) * infoD
		return 0.40 + 0.56*info
	}
	sLo, sHi := dsp.StripeBounds()
	dLo, dHi := dsp.DurationBounds()
	fLo, fHi := dsp.FeatureBounds()
	for s := sLo; s <= sHi; s++ {
		for d := dLo; d <= dHi; d++ {
			for f := fLo; f <= fHi; f++ {
				cfg := dsp.FrontEndConfig{SampleRate: dataset.AudioRateHz, StripeMS: s, DurationMS: d, NumFeatures: f}
				if got, want := kwsCeiling(cfg), kwsFormula(cfg); !same(got, want) {
					t.Fatalf("KWS ceiling %+v: %.17g, formula %.17g", cfg, got, want)
				}
			}
		}
	}
}
