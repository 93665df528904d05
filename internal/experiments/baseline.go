package experiments

import (
	"math/rand"

	"solarml/internal/dataset"
	"solarml/internal/dtw"
	"solarml/internal/energymodel"
	"solarml/internal/mcu"
	"solarml/internal/nn"
	"solarml/internal/quant"
	"solarml/internal/tensor"
)

// BaselineResult compares model-free DTW template matching (the SolarGest
// [15] approach) against a trained CNN at the same sensing configuration:
// identical E_S, very different E_M. This is the motivation experiment for
// learned tinyML models — template matching holds up on accuracy but pays
// an order of magnitude more compute energy per inference.
type BaselineResult struct {
	SensingJ float64
	// DTW side.
	DTWAccuracy  float64
	DTWMACs      int64
	DTWInferJ    float64
	DTWTemplates int
	// CNN side.
	CNNAccuracy float64
	CNNMACs     int64
	CNNInferJ   float64
}

// tracesFrom converts a materialized gesture tensor (N,1,n,T) into
// per-sample (channels × T) traces for the DTW classifier.
func tracesFrom(x *tensor.Tensor) [][][]float64 {
	n, ch, tt := x.Shape[0], x.Shape[2], x.Shape[3]
	out := make([][][]float64, n)
	for i := 0; i < n; i++ {
		tr := make([][]float64, ch)
		for c := 0; c < ch; c++ {
			tr[c] = make([]float64, tt)
			base := (i*ch + c) * tt
			copy(tr[c], x.Data[base:base+tt])
		}
		out[i] = tr
	}
	return out
}

// DTWBaseline runs the comparison on the digit-gesture task.
func DTWBaseline(seed int64) (*BaselineResult, error) {
	full := dataset.BuildGestureSet(200, 500, seed)
	train, test := full.Split(4)
	cfg := dataset.GestureConfig{Channels: 6, RateHz: 60,
		Quant: quant.Config{Res: quant.Int, Bits: 8}}
	trX, trY, err := train.Materialize(cfg)
	if err != nil {
		return nil, err
	}
	teX, teY, err := test.Materialize(cfg)
	if err != nil {
		return nil, err
	}
	profile := mcu.NRF52840()
	res := &BaselineResult{SensingJ: energymodel.GestureSensingTrue(profile, cfg)}

	// DTW: 5 templates per digit, band-limited.
	clf, err := dtw.NewClassifier(tracesFrom(trX), trY, 5, 10)
	if err != nil {
		return nil, err
	}
	res.DTWTemplates = len(clf.Templates)
	res.DTWAccuracy = clf.Accuracy(tracesFrom(teX), teY)
	res.DTWMACs = clf.MACsPerInference(cfg.Samples())
	res.DTWInferJ = float64(res.DTWMACs) * profile.CPUPerMACJ

	// CNN: a small trained model at the same sensing configuration.
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
	res.CNNAccuracy = net.Accuracy(teX, teY)
	res.CNNMACs = net.TotalMACs()
	res.CNNInferJ = energymodel.DefaultCoefficients().TrueEnergy(net.MACsByKind())
	return res, nil
}
