package dataset

import (
	"testing"

	"solarml/internal/dsp"
	"solarml/internal/nn"
	"solarml/internal/quant"
)

// BenchmarkBuildGestureSet times synthetic gesture generation.
func BenchmarkBuildGestureSet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		BuildGestureSet(100, 500, 1)
	}
}

// BenchmarkMaterializeGesture times rendering a set under one sensing
// configuration — the inner loop of the TrainEvaluator cache misses.
func BenchmarkMaterializeGesture(b *testing.B) {
	s := BuildGestureSet(100, 500, 1)
	cfg := GestureConfig{Channels: 6, RateHz: 80, Quant: quant.Config{Res: quant.Int, Bits: 8}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Materialize(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildKWSSet times synthetic keyword generation.
func BenchmarkBuildKWSSet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		BuildKWSSet(50, 1)
	}
}

// BenchmarkMaterializeKWS times the MFCC front-end over a 50-clip corpus.
func BenchmarkMaterializeKWS(b *testing.B) {
	s := BuildKWSSet(50, 1)
	cfg := dsp.FrontEndConfig{SampleRate: AudioRateHz, StripeMS: 20, DurationMS: 25, NumFeatures: 13}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Materialize(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKWSRichTrainCeiling measures the paper-scale accuracy ceiling of
// the synthetic keywords: a two-block CNN trained for 15 epochs on 300 clips
// through the richest front end, reporting held-out accuracy as "acc".
func BenchmarkKWSRichTrainCeiling(b *testing.B) {
	cfg := dsp.FrontEndConfig{SampleRate: AudioRateHz, StripeMS: 10, DurationMS: 30, NumFeatures: 40}
	body := []nn.LayerSpec{
		{Kind: nn.KindConv, Out: 8, K: 3, Stride: 1, Pad: 1}, {Kind: nn.KindReLU}, {Kind: nn.KindMaxPool, K: 2},
		{Kind: nn.KindConv, Out: 12, K: 3, Stride: 1, Pad: 1}, {Kind: nn.KindReLU}, {Kind: nn.KindMaxPool, K: 2},
		{Kind: nn.KindDense, Out: 48}, {Kind: nn.KindReLU},
	}
	var acc float64
	for i := 0; i < b.N; i++ {
		acc = trainKWS(b, 300, cfg, body, 15)
	}
	b.ReportMetric(acc, "acc")
}
