package nn

import (
	"math"
	"math/rand"
	"testing"

	"solarml/internal/tensor"
)

// spiralDataset builds a 3-class problem hard enough that aggressive
// quantization visibly hurts a float-trained model.
func spiralDataset(rng *rand.Rand, n int) (*tensor.Tensor, []int) {
	x := tensor.New(n, 2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 3
		r := 0.2 + 0.8*rng.Float64()
		th := float64(cls)*2*math.Pi/3 + r*2.2 + rng.NormFloat64()*0.12
		x.Data[i*2] = r * math.Cos(th)
		x.Data[i*2+1] = r * math.Sin(th)
		y[i] = cls
	}
	return x, y
}

func TestQATImprovesLowBitDeployment(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	x, y := spiralDataset(rng, 360)
	const bits = 3
	arch := &Arch{Input: []int{2}, Body: []LayerSpec{
		{Kind: KindDense, Out: 24}, {Kind: KindReLU},
		{Kind: KindDense, Out: 16}, {Kind: KindReLU},
	}, Classes: 3}
	build := func(seed int64) *Network {
		net, err := arch.Build()
		if err != nil {
			t.Fatal(err)
		}
		net.Init(rand.New(rand.NewSource(seed)))
		return net
	}
	// deployAcc lowers a trained network to the int8 program at the test's
	// bit widths and measures it.
	deployAcc := func(net *Network) float64 {
		m, err := ConvertInt8(arch, net, x, PTQConfig{WeightBits: bits, ActBits: 8})
		if err != nil {
			t.Fatal(err)
		}
		return m.Accuracy(nil, x, y)
	}
	base := TrainConfig{Epochs: 60, BatchSize: 16, LR: 0.05, Momentum: 0.9, Seed: 9}

	// Float-trained model, then int8 lowering at low bits.
	floatNet := build(1)
	floatNet.Fit(x, y, base)
	floatAcc := floatNet.Accuracy(x, y)
	if floatAcc < 0.85 {
		t.Fatalf("float training failed: %.3f", floatAcc)
	}
	ptqFloatAcc := deployAcc(floatNet)

	// QAT-trained model, lowered at the same bits.
	qatNet := build(1)
	qatCfg := base
	qatCfg.QATWeightBits = bits
	qatNet.Fit(x, y, qatCfg)
	ptqQATAcc := deployAcc(qatNet)

	if ptqQATAcc < ptqFloatAcc-0.02 {
		t.Fatalf("QAT deployment (%.3f) should not trail float-then-PTQ (%.3f) at %d bits",
			ptqQATAcc, ptqFloatAcc, bits)
	}
	// The QAT-quantized deployment should itself be usable.
	if ptqQATAcc < 0.7 {
		t.Fatalf("QAT deployment accuracy %.3f too low", ptqQATAcc)
	}
}

func TestQATZeroBitsIsPlainTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	x, y := spiralDataset(rng, 120)
	a := NewNetwork([]int{2}, NewDense(2, 8), NewReLU(), NewDense(8, 3))
	b := NewNetwork([]int{2}, NewDense(2, 8), NewReLU(), NewDense(8, 3))
	a.Init(rand.New(rand.NewSource(5)))
	b.Init(rand.New(rand.NewSource(5)))
	cfg := TrainConfig{Epochs: 5, BatchSize: 16, LR: 0.05, Momentum: 0.9, Seed: 9}
	a.Fit(x, y, cfg)
	cfg.QATWeightBits = 0
	b.Fit(x, y, cfg)
	pa := a.Params()
	pb := b.Params()
	for i := range pa {
		for j := range pa[i].Value.Data {
			if pa[i].Value.Data[j] != pb[i].Value.Data[j] {
				t.Fatal("QATWeightBits=0 must behave exactly like plain training")
			}
		}
	}
}
