package nas

// Fingerprint pins: the fingerprint keys the surrogate's noise, the
// evaluation memo, and checkpoint best-genome comparisons, so its value for
// a given candidate must never drift — persisted memos and every seeded
// search golden depend on it.

import (
	"testing"

	"solarml/internal/dataset"
	"solarml/internal/dsp"
	"solarml/internal/nn"
	"solarml/internal/quant"
)

func TestFingerprintGolden(t *testing.T) {
	conv := func(out, k, s, p int) nn.LayerSpec {
		return nn.LayerSpec{Kind: nn.KindConv, Out: out, K: k, Stride: s, Pad: p}
	}
	dense := func(out int) nn.LayerSpec { return nn.LayerSpec{Kind: nn.KindDense, Out: out} }
	pool := func(kind nn.LayerKind, k int) nn.LayerSpec { return nn.LayerSpec{Kind: kind, K: k} }
	relu := nn.LayerSpec{Kind: nn.KindReLU}
	norm := nn.LayerSpec{Kind: nn.KindNorm}
	gesture := func(ch, rate int, q quant.Config, body ...nn.LayerSpec) *Candidate {
		return &Candidate{
			Task:    TaskGesture,
			Gesture: dataset.GestureConfig{Channels: ch, RateHz: rate, Quant: q},
			Arch:    &nn.Arch{Body: body},
		}
	}
	kws := func(stripe, dur, feat int, body ...nn.LayerSpec) *Candidate {
		return &Candidate{
			Task: TaskKWS,
			Audio: dsp.FrontEndConfig{
				SampleRate: dataset.AudioRateHz, StripeMS: stripe, DurationMS: dur, NumFeatures: feat,
			},
			Arch: &nn.Arch{Body: body},
		}
	}
	for _, tc := range []struct {
		name string
		c    *Candidate
		want uint64
	}{
		{"gesture-empty-body", gesture(3, 50, quant.Config{Res: quant.Int, Bits: 8}), 0xa66dfae410eea771},
		{"gesture-conv-dense", gesture(9, 200, quant.Config{Res: quant.Int, Bits: 4},
			conv(8, 3, 1, 1), relu, pool(nn.KindMaxPool, 2), dense(32), relu), 0x50a178a7faae5e62},
		{"gesture-float-deep", gesture(1, 10, quant.Config{Res: quant.Float, Bits: 9},
			conv(24, 5, 2, 2), norm, relu, nn.LayerSpec{Kind: nn.KindDWConv, K: 3, Stride: 1, Pad: 1},
			pool(nn.KindAvgPool, 2), dense(64), dense(16)), 0x33328e9f436f0ae5},
		{"gesture-dense-only", gesture(5, 120, quant.Config{Res: quant.Int, Bits: 2},
			dense(48), relu, dense(8)), 0x834deafa051f71a4},
		{"kws-empty-body", kws(20, 25, 13), 0x32397670f6c5753f},
		{"kws-conv-stack", kws(10, 30, 40,
			conv(16, 3, 1, 1), relu, pool(nn.KindMaxPool, 2),
			conv(32, 3, 1, 1), relu, pool(nn.KindMaxPool, 2), dense(64)), 0x4ac745e600591003},
		{"kws-dwconv", kws(30, 18, 10,
			conv(4, 5, 2, 0), nn.LayerSpec{Kind: nn.KindDWConv, K: 5, Stride: 2, Pad: 2}, norm, dense(24)), 0x4057d5b5921c73d9},
		// Out-of-range and negative fields hash like any other integer.
		{"kws-negative-fields", kws(-1, 0, 1<<40,
			conv(-3, 0, -7, -1), nn.LayerSpec{Kind: nn.LayerKind(-2), Out: 1 << 62}), 0xc4dcd81d7b0b0897},
	} {
		if got := tc.c.Fingerprint(); got != tc.want {
			t.Errorf("%s: fingerprint %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}

// TestSensingKeyGolden pins the TrainEvaluator's dataset-cache key: equal
// sensing over different bodies shares one key, the key is not either
// candidate's full fingerprint, and its value never drifts.
func TestSensingKeyGolden(t *testing.T) {
	dense := func(out int) *nn.Arch { return &nn.Arch{Body: []nn.LayerSpec{{Kind: nn.KindDense, Out: out}}} }
	gesture := dataset.GestureConfig{Channels: 6, RateHz: 80, Quant: quant.Config{Res: quant.Int, Bits: 8}}
	audio := dsp.FrontEndConfig{SampleRate: dataset.AudioRateHz, StripeMS: 20, DurationMS: 25, NumFeatures: 13}
	for _, tc := range []struct {
		a, b *Candidate
		want uint64
	}{
		{&Candidate{Task: TaskGesture, Gesture: gesture, Arch: dense(16)},
			&Candidate{Task: TaskGesture, Gesture: gesture, Arch: dense(32)}, 0xa60604c4214f6229},
		{&Candidate{Task: TaskKWS, Audio: audio, Arch: dense(16)},
			&Candidate{Task: TaskKWS, Audio: audio, Arch: dense(32)}, 0x32397670f6c5753f},
	} {
		for _, c := range []*Candidate{tc.a, tc.b} {
			if err := c.Validate(); err != nil {
				t.Fatal(err)
			}
		}
		ka, kb := sensingKey(tc.a), sensingKey(tc.b)
		if ka != kb {
			t.Errorf("%s: equal sensing keyed %#016x and %#016x", tc.a.Task, ka, kb)
		}
		if ka == tc.a.Fingerprint() || ka == tc.b.Fingerprint() {
			t.Errorf("%s: sensing key %#016x equals a full fingerprint", tc.a.Task, ka)
		}
		if ka != tc.want {
			t.Errorf("%s: sensing key %#016x, want %#016x", tc.a.Task, ka, tc.want)
		}
	}
}
