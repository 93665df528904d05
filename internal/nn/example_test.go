package nn_test

import (
	"fmt"
	"math/rand"

	"solarml/internal/nn"
	"solarml/internal/tensor"
)

// ExampleArch_Build shows how architectures are described as data, built
// into networks, and accounted for — the workflow the NAS drives.
func ExampleArch_Build() {
	arch := &nn.Arch{
		Input: []int{1, 8, 8},
		Body: []nn.LayerSpec{
			{Kind: nn.KindConv, Out: 4, K: 3, Stride: 1, Pad: 1},
			{Kind: nn.KindReLU},
			{Kind: nn.KindMaxPool, K: 2},
		},
		Classes: 10,
	}
	net, err := arch.Build()
	if err != nil {
		panic(err)
	}
	fmt.Println("total MACs:", net.TotalMACs())
	fmt.Println("conv MACs: ", net.MACsByKind().Of(nn.KindConv))
	fmt.Println("RAM (int8):", net.MemoryBytes(8, 8), "bytes")
	// Output:
	// total MACs: 3200
	// conv MACs:  2304
	// RAM (int8): 1202 bytes
}

// ExampleNetwork_Fit trains a two-layer perceptron on a linearly separable
// toy problem.
func ExampleNetwork_Fit() {
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(100, 2)
	y := make([]int, 100)
	for i := 0; i < 100; i++ {
		cls := i % 2
		sign := float64(2*cls - 1)
		x.Data[i*2] = sign + rng.NormFloat64()*0.2
		x.Data[i*2+1] = -sign + rng.NormFloat64()*0.2
		y[i] = cls
	}
	net := nn.NewNetwork([]int{2}, nn.NewDense(2, 8), nn.NewReLU(), nn.NewDense(8, 2))
	net.Init(rng)
	net.Fit(x, y, nn.TrainConfig{Epochs: 20, BatchSize: 10, LR: 0.1, Momentum: 0.9, Seed: 1})
	fmt.Printf("accuracy ≥ 0.95: %v\n", net.Accuracy(x, y) >= 0.95)
	// Output:
	// accuracy ≥ 0.95: true
}
