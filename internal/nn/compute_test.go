package nn

import (
	"math"
	"math/rand"
	"testing"

	"solarml/internal/compute"
	"solarml/internal/tensor"
)

// buildComputeTestNet returns a net covering every GEMM layer kind:
// standard conv, depthwise conv, and a dense head. Odd spatial dims and a
// stride-2 stage exercise uneven row partitions in the parallel backend.
func buildComputeTestNet() *Network {
	return NewNetwork([]int{1, 9, 11},
		NewConv2D(1, 4, 3, 1, 1),
		NewReLU(),
		NewDepthwiseConv2D(4, 3, 2, 1),
		NewReLU(),
		NewFlatten(),
		NewDense(4*5*6, 10),
	)
}

// trainStepBitwise runs one forward+backward and returns logits, input grad
// and all parameter grads.
func trainStepBitwise(net *Network, x *tensor.Tensor, labels []int) (logits, dx *tensor.Tensor, grads []*tensor.Tensor) {
	net.ZeroGrads()
	logits = net.Forward(x.Clone(), true)
	_, g := CrossEntropy(logits, labels)
	for i := len(net.Layers) - 1; i >= 0; i-- {
		g = net.Layers[i].Backward(g)
	}
	dx = g
	for _, p := range net.Params() {
		grads = append(grads, p.Grad)
	}
	return logits, dx, grads
}

func tensorsBitEqual(t *testing.T, name string, want, got *tensor.Tensor) {
	t.Helper()
	if len(want.Data) != len(got.Data) {
		t.Fatalf("%s: length %d vs %d", name, len(want.Data), len(got.Data))
	}
	for i := range want.Data {
		if math.Float64bits(want.Data[i]) != math.Float64bits(got.Data[i]) {
			t.Fatalf("%s: element %d differs: %v vs %v", name, i, want.Data[i], got.Data[i])
		}
	}
}

// TestParallelTrainingBitIdentical proves the tentpole's determinism claim at
// the layer level: forward logits, input gradients and every parameter
// gradient of a conv/dwconv/dense net are bit-identical between the serial
// backend and the parallel backend at several worker counts.
func TestParallelTrainingBitIdentical(t *testing.T) {
	const n = 5
	rng := rand.New(rand.NewSource(3))
	x := tensor.New(n, 1, 9, 11)
	x.RandFill(rng, 1)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(10)
	}

	ref := buildComputeTestNet()
	ref.Init(rand.New(rand.NewSource(5)))
	ref.SetCompute(compute.NewContextFor(1, nil))
	wantLogits, wantDx, wantGrads := trainStepBitwise(ref, x, labels)

	for _, workers := range []int{2, 3, 7} {
		net := buildComputeTestNet()
		net.Init(rand.New(rand.NewSource(5)))
		net.SetCompute(compute.NewContextFor(workers, nil))
		gotLogits, gotDx, gotGrads := trainStepBitwise(net, x, labels)
		tensorsBitEqual(t, "logits", wantLogits, gotLogits)
		tensorsBitEqual(t, "dx", wantDx, gotDx)
		for i := range wantGrads {
			tensorsBitEqual(t, "grad", wantGrads[i], gotGrads[i])
		}
	}
}

// TestComputeContextMatchesNoContext checks that installing a compute
// context does not change the numerics of the default path: a net with an
// explicitly installed serial context produces bit-identical results to a
// freshly built net on the default context, whose arena is still empty (so
// every buffer is a fresh, zeroed allocation).
func TestComputeContextMatchesNoContext(t *testing.T) {
	const n = 3
	rng := rand.New(rand.NewSource(9))
	x := tensor.New(n, 1, 9, 11)
	x.RandFill(rng, 1)
	labels := []int{1, 2, 3}

	plain := buildComputeTestNet()
	plain.Init(rand.New(rand.NewSource(7)))
	wantLogits, wantDx, wantGrads := trainStepBitwise(plain, x, labels)

	withCtx := buildComputeTestNet()
	withCtx.Init(rand.New(rand.NewSource(7)))
	withCtx.SetCompute(compute.NewContextFor(1, nil))
	gotLogits, gotDx, gotGrads := trainStepBitwise(withCtx, x, labels)

	tensorsBitEqual(t, "logits", wantLogits, gotLogits)
	tensorsBitEqual(t, "dx", wantDx, gotDx)
	for i := range wantGrads {
		tensorsBitEqual(t, "grad", wantGrads[i], gotGrads[i])
	}
}

// TestConv2DForwardAllocs pins the steady-state allocation count of the
// batched Conv2D forward. Before the batched-im2col rework the forward
// allocated one column matrix per sample per call; with a warm arena it
// must stay at a handful of fixed allocations regardless of batch size.
func TestConv2DForwardAllocs(t *testing.T) {
	conv := NewConv2D(2, 8, 3, 1, 1)
	conv.Init(rand.New(rand.NewSource(1)))
	NewNetwork([]int{2, 9, 12}, conv).SetCompute(compute.NewContextFor(1, nil))
	x := tensor.New(16, 2, 9, 12)
	x.RandFill(rand.New(rand.NewSource(2)), 1)
	// Warm the arena: one forward/backward pair acquires all scratch.
	out := conv.Forward(x, true).Clone()
	conv.Backward(out)

	allocs := testing.AllocsPerRun(10, func() {
		conv.Forward(x, true)
		conv.Backward(out)
	})
	// With a warm arena forward+backward allocate nothing; the bound keeps
	// its earlier value, and 16 would mean per-sample column matrices are
	// back.
	if allocs > 14 {
		t.Fatalf("Conv2D forward+backward allocates %.0f times per step, want ≤14", allocs)
	}
}
