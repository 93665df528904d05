package dataset

import (
	"math"
	"math/rand"
	"testing"

	"solarml/internal/dsp"
	"solarml/internal/nn"
)

func centroidAcc(t *testing.T, cfg dsp.FrontEndConfig, n int) float64 {
	s := BuildKWSSet(n, 7)
	x, y, err := s.Materialize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dim := len(x.Data) / x.Shape[0]
	half := n / 2
	centroids := make([][]float64, NumKWSClasses)
	counts := make([]int, NumKWSClasses)
	for i := 0; i < half; i++ {
		c := y[i]
		if centroids[c] == nil {
			centroids[c] = make([]float64, dim)
		}
		for j := 0; j < dim; j++ {
			centroids[c][j] += x.Data[i*dim+j]
		}
		counts[c]++
	}
	for c := range centroids {
		for j := range centroids[c] {
			centroids[c][j] /= float64(counts[c])
		}
	}
	correct := 0
	for i := half; i < n; i++ {
		best, bi := math.Inf(1), 0
		for c := range centroids {
			d := 0.0
			for j := 0; j < dim; j++ {
				diff := x.Data[i*dim+j] - centroids[c][j]
				d += diff * diff
			}
			if d < best {
				best, bi = d, c
			}
		}
		if bi == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(n-half)
}

// kwsFrontEnds are four front ends from poorest to richest: finer stripes,
// longer windows and more coefficients.
var kwsFrontEnds = []dsp.FrontEndConfig{
	{SampleRate: AudioRateHz, StripeMS: 30, DurationMS: 18, NumFeatures: 10},
	{SampleRate: AudioRateHz, StripeMS: 25, DurationMS: 22, NumFeatures: 13},
	{SampleRate: AudioRateHz, StripeMS: 20, DurationMS: 25, NumFeatures: 20},
	{SampleRate: AudioRateHz, StripeMS: 10, DurationMS: 30, NumFeatures: 40},
}

// TestKWSFrontEndInformation checks that a richer front end carries more
// keyword information, measured model-free as nearest-centroid accuracy:
// the richest front end beats the poorest by at least 0.05, no step towards
// a richer one falls by more than 0.02, and every one scores at least twice
// chance.
func TestKWSFrontEndInformation(t *testing.T) {
	const chance = 1.0 / NumKWSClasses
	var accs []float64
	for _, c := range kwsFrontEnds {
		acc := centroidAcc(t, c, 100)
		if acc < 2*chance {
			t.Errorf("s=%d d=%d f=%d: centroid accuracy %.3f below twice chance",
				c.StripeMS, c.DurationMS, c.NumFeatures, acc)
		}
		if n := len(accs); n > 0 && acc < accs[n-1]-0.02 {
			t.Errorf("s=%d d=%d f=%d: centroid accuracy %.3f falls from %.3f",
				c.StripeMS, c.DurationMS, c.NumFeatures, acc, accs[n-1])
		}
		accs = append(accs, acc)
	}
	if gain := accs[len(accs)-1] - accs[0]; gain < 0.05 {
		t.Errorf("richest front end gains %.3f over the poorest (%v), want ≥ 0.05", gain, accs)
	}
}

// trainKWS trains the given body on n clips (one in five held out) under
// the front end and returns the held-out accuracy.
func trainKWS(tb testing.TB, n int, cfg dsp.FrontEndConfig, body []nn.LayerSpec, epochs int) float64 {
	tb.Helper()
	train, test := BuildKWSSet(n, 7).Split(5)
	trX, trY, err := train.Materialize(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	teX, teY, err := test.Materialize(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	arch := &nn.Arch{Input: []int{1, cfg.NumFrames(8000), cfg.NumFeatures}, Body: body, Classes: NumKWSClasses}
	net, err := arch.Build()
	if err != nil {
		tb.Fatal(err)
	}
	net.Init(rand.New(rand.NewSource(7)))
	net.Fit(trX, trY, nn.TrainConfig{Epochs: epochs, BatchSize: 16, LR: 0.01, Momentum: 0.9, Seed: 7})
	return net.Accuracy(teX, teY)
}

// TestKWSSmallCNNLearns checks that the synthetic keywords are learnable
// through the standard front end: a small CNN trained briefly on 200 clips
// scores at least 0.25 held out, where chance is 0.10.
func TestKWSSmallCNNLearns(t *testing.T) {
	cfg := dsp.FrontEndConfig{SampleRate: AudioRateHz, StripeMS: 20, DurationMS: 25, NumFeatures: 20}
	body := []nn.LayerSpec{
		{Kind: nn.KindConv, Out: 4, K: 3, Stride: 1, Pad: 1}, {Kind: nn.KindReLU}, {Kind: nn.KindMaxPool, K: 2},
		{Kind: nn.KindDense, Out: 24}, {Kind: nn.KindReLU},
	}
	if acc := trainKWS(t, 200, cfg, body, 5); acc < 0.25 {
		t.Fatalf("held-out accuracy %.3f, want ≥ 0.25", acc)
	}
}
