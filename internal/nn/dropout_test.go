package nn

import (
	"math"
	"math/rand"
	"testing"

	"solarml/internal/tensor"
)

func TestDropoutInferenceIsIdentity(t *testing.T) {
	d := NewDropout(0.5)
	d.Init(rand.New(rand.NewSource(1)))
	bindLayer(d)
	x := tensor.New(4, 10)
	x.RandFill(rand.New(rand.NewSource(2)), 1)
	out := d.Forward(x, false)
	for i := range x.Data {
		if out.Data[i] != x.Data[i] {
			t.Fatal("inference-mode dropout must be the identity")
		}
	}
}

func TestDropoutTrainStatistics(t *testing.T) {
	d := NewDropout(0.4)
	d.Init(rand.New(rand.NewSource(3)))
	bindLayer(d)
	x := tensor.New(1, 20_000)
	x.Fill(1)
	out := d.Forward(x, true)
	zeros := 0
	for _, v := range out.Data {
		if v == 0 {
			zeros++
		} else if math.Abs(v-1/0.6) > 1e-12 {
			t.Fatalf("survivor scaled to %v, want %v", v, 1/0.6)
		}
	}
	frac := float64(zeros) / float64(len(out.Data))
	if math.Abs(frac-0.4) > 0.02 {
		t.Fatalf("dropped fraction %.3f, want ≈0.4", frac)
	}
	// Inverted dropout preserves the expected activation sum.
	if m := out.Mean(); math.Abs(m-1) > 0.03 {
		t.Fatalf("mean activation %v, want ≈1", m)
	}
}

func TestDropoutBackwardMatchesMask(t *testing.T) {
	d := NewDropout(0.5)
	d.Init(rand.New(rand.NewSource(4)))
	bindLayer(d)
	x := tensor.New(2, 50)
	x.Fill(1)
	out := d.Forward(x, true)
	grad := tensor.New(2, 50)
	grad.Fill(1)
	dx := d.Backward(grad)
	for i := range out.Data {
		if (out.Data[i] == 0) != (dx.Data[i] == 0) {
			t.Fatal("gradient must flow exactly through the surviving units")
		}
	}
}

func TestDropoutGradCheck(t *testing.T) {
	// With a fixed mask (same Forward call), dropout is linear, so the
	// analytic gradient must match the mask exactly — covered above; here
	// verify it composes inside a network without breaking training.
	rng := rand.New(rand.NewSource(5))
	x := tensor.New(120, 2)
	y := make([]int, 120)
	for i := 0; i < 120; i++ {
		cls := i % 2
		s := float64(2*cls - 1)
		x.Data[i*2] = s + rng.NormFloat64()*0.3
		x.Data[i*2+1] = -s + rng.NormFloat64()*0.3
		y[i] = cls
	}
	net := NewNetwork([]int{2}, NewDense(2, 16), NewReLU(), NewDropout(0.3), NewDense(16, 2))
	net.Init(rng)
	net.Fit(x, y, TrainConfig{Epochs: 25, BatchSize: 16, LR: 0.1, Momentum: 0.9, Seed: 5})
	if acc := net.Accuracy(x, y); acc < 0.9 {
		t.Fatalf("network with dropout failed to train: %.3f", acc)
	}
}

func TestDropoutValidation(t *testing.T) {
	for _, p := range []float64{-0.1, 1.0, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("p=%v should panic", p)
				}
			}()
			NewDropout(p)
		}()
	}
}

func TestDropoutKindName(t *testing.T) {
	if KindDropout.String() != "Dropout" {
		t.Fatal("kind name")
	}
	if NewDropout(0.1).MACs([]int{10}) != 0 {
		t.Fatal("dropout must carry no MACs")
	}
}
