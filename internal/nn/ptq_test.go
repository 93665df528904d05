package nn

import (
	"math"
	"math/rand"
	"testing"

	"solarml/internal/tensor"
)

// trainedBlobNet returns a small trained MLP, its architecture, and its
// dataset.
func trainedBlobNet(t *testing.T) (*Arch, *Network, *tensor.Tensor, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(50))
	const n = 240
	x := tensor.New(n, 2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 3
		angle := float64(cls) * 2 * math.Pi / 3
		x.Data[i*2] = math.Cos(angle) + rng.NormFloat64()*0.25
		x.Data[i*2+1] = math.Sin(angle) + rng.NormFloat64()*0.25
		y[i] = cls
	}
	arch := &Arch{Input: []int{2}, Body: []LayerSpec{{Kind: KindDense, Out: 16}, {Kind: KindReLU}}, Classes: 3}
	net, err := arch.Build()
	if err != nil {
		t.Fatal(err)
	}
	net.Init(rng)
	net.Fit(x, y, TrainConfig{Epochs: 40, BatchSize: 16, LR: 0.1, Momentum: 0.9, Seed: 1})
	if acc := net.Accuracy(x, y); acc < 0.9 {
		t.Fatalf("float model failed to train: %.2f", acc)
	}
	return arch, net, x, y
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	_, net, x, y := trainedBlobNet(t)
	accBefore := net.Accuracy(x, y)
	snap := net.SnapshotParams()
	// Wreck the weights.
	for _, p := range net.Params() {
		p.Value.Fill(0)
	}
	if net.Accuracy(x, y) >= accBefore {
		t.Fatal("zeroed network should be broken")
	}
	net.RestoreParams(snap)
	if net.Accuracy(x, y) != accBefore {
		t.Fatal("restore must reproduce the exact model")
	}
}

func TestRestoreRejectsWrongShape(t *testing.T) {
	_, net, _, _ := trainedBlobNet(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched snapshot")
		}
	}()
	net.RestoreParams([][]float64{{1}})
}

// The PTQ tests below lower through ConvertInt8, the one quantizer, and
// measure the int8 program.

func TestPTQ8BitPreservesAccuracy(t *testing.T) {
	arch, net, x, y := trainedBlobNet(t)
	floatAcc := net.Accuracy(x, y)
	m, err := ConvertInt8(arch, net, x, PTQConfig{WeightBits: 8, ActBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	qAcc := m.Accuracy(nil, x, y)
	if qAcc < floatAcc-0.03 {
		t.Fatalf("8-bit PTQ accuracy %.3f vs float %.3f — drop too large", qAcc, floatAcc)
	}
}

func TestPTQLowBitsDegrade(t *testing.T) {
	arch, net, x, y := trainedBlobNet(t)
	accAt := func(bits int) float64 {
		m, err := ConvertInt8(arch, net, x, PTQConfig{WeightBits: bits, ActBits: bits})
		if err != nil {
			t.Fatal(err)
		}
		return m.Accuracy(nil, x, y)
	}
	a8, a2 := accAt(8), accAt(2)
	if a2 >= a8 {
		t.Fatalf("2-bit (%.3f) should degrade versus 8-bit (%.3f)", a2, a8)
	}
}

func TestPTQWeightsOnGrid(t *testing.T) {
	arch, net, x, _ := trainedBlobNet(t)
	m, err := ConvertInt8(arch, net, x, PTQConfig{WeightBits: 4, ActBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Every weight row must lie on the symmetric 4-bit grid, ±(2^3−1) = ±7,
	// and a live row's largest weight must land on the grid's edge.
	for i := range m.ops {
		op := &m.ops[i]
		if len(op.w) == 0 {
			continue
		}
		rowLen := len(op.w) / op.outC
		for r := 0; r < op.outC; r++ {
			peak := 0
			for j, q := range op.w[r*rowLen : (r+1)*rowLen] {
				if q < -7 || q > 7 {
					t.Fatalf("op %d row %d weight %d = %d, off the 4-bit grid", i, r, j, q)
				}
				peak = max(peak, int(q), -int(q))
			}
			if peak != 0 && peak != 7 {
				t.Fatalf("op %d row %d peaks at %d, want 7", i, r, peak)
			}
		}
	}
}

func TestPTQOnConvNet(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	const n, side = 120, 8
	x := tensor.New(n, 1, side, side)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 2
		pos := rng.Intn(side)
		for j := 0; j < side; j++ {
			if cls == 0 {
				x.Set(1, i, 0, j, pos)
			} else {
				x.Set(1, i, 0, pos, j)
			}
		}
		y[i] = cls
	}
	arch := &Arch{Input: []int{1, side, side}, Body: []LayerSpec{
		{Kind: KindConv, Out: 4, K: 3, Stride: 1, Pad: 1},
		{Kind: KindReLU},
		{Kind: KindMaxPool, K: 2},
	}, Classes: 2}
	net, err := arch.Build()
	if err != nil {
		t.Fatal(err)
	}
	net.Init(rng)
	net.Fit(x, y, TrainConfig{Epochs: 15, BatchSize: 16, LR: 0.05, Momentum: 0.9, Seed: 2})
	floatAcc := net.Accuracy(x, y)
	m, err := ConvertInt8(arch, net, x, PTQConfig{WeightBits: 8, ActBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	if qAcc := m.Accuracy(nil, x, y); qAcc < floatAcc-0.05 {
		t.Fatalf("conv PTQ accuracy %.3f vs float %.3f", qAcc, floatAcc)
	}
}
