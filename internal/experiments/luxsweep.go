package experiments

import (
	"math/rand"

	"solarml/internal/dataset"
	"solarml/internal/nn"
	"solarml/internal/quant"
)

// LuxPoint is one illuminance level's trained accuracy.
type LuxPoint struct {
	Lux      float64
	Accuracy float64
}

// LuxRobustness measures gesture recognition accuracy as the ambient light
// dims: the sensing divider's electronic noise floor is lux-independent,
// so the SNR — and with it the achievable accuracy — falls with
// illuminance. (An extension experiment: the paper evaluates harvesting
// time versus lux, this adds the sensing-quality axis.) Each point trains
// the same small CNN on a corpus captured at that illuminance.
func LuxRobustness(seed int64, luxLevels []float64) ([]LuxPoint, error) {
	cfg := dataset.GestureConfig{Channels: 6, RateHz: 60,
		Quant: quant.Config{Res: quant.Int, Bits: 8}}
	out := make([]LuxPoint, 0, len(luxLevels))
	for _, lux := range luxLevels {
		full := dataset.BuildGestureSet(160, lux, seed) // same gestures, different light
		// A cheap divider/ADC front end: 1.5 mV of electronic noise. At
		// 1000 lux the sense signal spans ≈67 mV (2% noise); at 20 lux it
		// spans ≈1.6 mV and the signal drowns.
		full.NoiseVolts = 1.5e-3
		train, test := full.Split(4)
		trX, trY, err := train.Materialize(cfg)
		if err != nil {
			return nil, err
		}
		teX, teY, err := test.Materialize(cfg)
		if err != nil {
			return nil, err
		}
		arch := &nn.Arch{
			Input: cfg.InputShape(),
			Body: []nn.LayerSpec{
				{Kind: nn.KindConv, Out: 6, K: 3, Stride: 1, Pad: 1},
				{Kind: nn.KindReLU},
				{Kind: nn.KindMaxPool, K: 2},
				{Kind: nn.KindDense, Out: 32},
				{Kind: nn.KindReLU},
			},
			Classes: dataset.NumGestureClasses,
		}
		net, err := arch.Build()
		if err != nil {
			return nil, err
		}
		net.Init(rand.New(rand.NewSource(seed)))
		net.SetCompute(computeCtx())
		net.Fit(trX, trY, nn.TrainConfig{Epochs: 8, BatchSize: 16, LR: 0.03, Momentum: 0.9, Seed: seed})
		out = append(out, LuxPoint{Lux: lux, Accuracy: net.Accuracy(teX, teY)})
	}
	return out, nil
}
