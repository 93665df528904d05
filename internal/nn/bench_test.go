package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"solarml/internal/compute"
	"solarml/internal/tensor"
)

func benchConvNet(b *testing.B) (*Network, *tensor.Tensor, []int) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	arch := &Arch{
		Input: []int{1, 9, 120},
		Body: []LayerSpec{
			{Kind: KindConv, Out: 8, K: 3, Stride: 1, Pad: 1},
			{Kind: KindReLU},
			{Kind: KindMaxPool, K: 2},
			{Kind: KindConv, Out: 12, K: 3, Stride: 1, Pad: 1},
			{Kind: KindReLU},
			{Kind: KindMaxPool, K: 2},
			{Kind: KindDense, Out: 32},
			{Kind: KindReLU},
		},
		Classes: 10,
	}
	net, err := arch.Build()
	if err != nil {
		b.Fatal(err)
	}
	net.Init(rng)
	x := tensor.New(16, 1, 9, 120)
	x.RandFill(rng, 1)
	y := make([]int, 16)
	for i := range y {
		y[i] = i % 10
	}
	return net, x, y
}

// BenchmarkForwardCNN times one 16-sample inference batch through a
// gesture-sized CNN.
func BenchmarkForwardCNN(b *testing.B) {
	net, x, _ := benchConvNet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x, false)
	}
}

// BenchmarkMatMulMid times the core GEMM at a NAS-typical size.
func BenchmarkMatMulMid(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	a := tensor.New(64, 256)
	c := tensor.New(256, 64)
	a.RandFill(rng, 1)
	c.RandFill(rng, 1)
	out := tensor.New(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulInto(out, a, c)
	}
}

// benchTrainStepWithCompute is one forward+backward+update minibatch with
// the given compute context installed — the serial-vs-parallel pair below is
// the backend speedup measurement at a NAS-typical network size.
func benchTrainStepWithCompute(b *testing.B, ctx *compute.Context) {
	net, x, y := benchConvNet(b)
	net.SetCompute(ctx)
	opt := &SGD{LR: 0.01, Momentum: 0.9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ZeroGrads()
		logits := net.Forward(x, true)
		_, grad := CrossEntropy(logits, y)
		for li := len(net.Layers) - 1; li >= 0; li-- {
			grad = net.Layers[li].Backward(grad)
		}
		opt.StepCtx(ctx, net.Params())
	}
}

// BenchmarkTrainStepCNNBackend compares the compute backends on the same
// training step: serial is the reference, workersN adds kernel workers.
// The backends are bit-identical, so the ratio is pure speedup. (Sub-names
// avoid a trailing -N, which cmd/benchjson would strip as a GOMAXPROCS
// suffix.)
func BenchmarkTrainStepCNNBackend(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		benchTrainStepWithCompute(b, compute.NewContextFor(1, nil))
	})
	for _, workers := range []int{2, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			benchTrainStepWithCompute(b, compute.NewContextFor(workers, nil))
		})
	}
}

// benchTrainStepArena is the steady-state Fit minibatch step: params
// hoisted, loss scratch and every layer buffer reused.
func benchTrainStepArena(b *testing.B, workers int) {
	net, x, y := benchConvNet(b)
	net.SetCompute(compute.NewContextFor(workers, nil))
	params := net.Params()
	opt := &SGD{LR: 0.01, Momentum: 0.9}
	net.trainStep(x, y, params, opt) // warm the arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.trainStep(x, y, params, opt)
	}
}

// BenchmarkTrainStepArena measures the allocation-free steady-state training
// step at several kernel worker counts; allocs/op is the headline number
// (the pre-arena step allocated every layer buffer per minibatch).
func BenchmarkTrainStepArena(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			benchTrainStepArena(b, workers)
		})
	}
}
