package nn

import (
	"bytes"
	"math/rand"
	"testing"

	"solarml/internal/tensor"
)

func trainedConvModel(t *testing.T) (*Arch, *Network, *tensor.Tensor, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(60))
	const n, side = 80, 6
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
		{Kind: KindNorm},
		{Kind: KindReLU},
		{Kind: KindMaxPool, K: 2},
		{Kind: KindDense, Out: 8},
		{Kind: KindReLU},
	}, Classes: 2}
	net, err := arch.Build()
	if err != nil {
		t.Fatal(err)
	}
	net.Init(rng)
	net.Fit(x, y, TrainConfig{Epochs: 10, BatchSize: 16, LR: 0.05, Momentum: 0.9, Seed: 3})
	return arch, net, x, y
}

func TestSaveLoadRoundTrip(t *testing.T) {
	arch, net, x, y := trainedConvModel(t)
	want := net.Accuracy(x, y)
	var buf bytes.Buffer
	if err := SaveModel(&buf, arch, net); err != nil {
		t.Fatal(err)
	}
	arch2, net2, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if arch2.String() != arch.String() {
		t.Fatalf("arch mismatch: %s vs %s", arch2, arch)
	}
	if got := net2.Accuracy(x, y); got != want {
		t.Fatalf("loaded model accuracy %.3f, want %.3f (must be bit-exact)", got, want)
	}
	// Logits must match exactly.
	probe := tensor.FromSlice(x.Data[:36], 1, 1, 6, 6)
	a := net.Forward(probe, false)
	b := net2.Forward(probe, false)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("loaded model must reproduce logits bit-exactly")
		}
	}
}

func TestLoadRejectsBadMagic(t *testing.T) {
	if _, _, err := LoadModel(bytes.NewReader([]byte("XXXX1234"))); err == nil {
		t.Fatal("bad magic must fail")
	}
}

// TestLoadRejectsTruncated cuts the float payload itself: the container's
// checksum would reject a truncated file before the decoder sees it.
func TestLoadRejectsTruncated(t *testing.T) {
	arch, net, _, _ := trainedConvModel(t)
	full := encodeFloatModel(arch, net)
	for _, cut := range []int{3, 8, 20, len(full) / 2, len(full) - 4} {
		if _, _, err := decodeFloatModel(full[:cut]); err == nil {
			t.Fatalf("truncation at %d must fail", cut)
		}
	}
}

func TestLoadRejectsBadVersion(t *testing.T) {
	arch, net, _, _ := trainedConvModel(t)
	data := encodeFloatModel(arch, net)
	data[4] = 99 // corrupt the payload version
	if _, _, err := decodeFloatModel(data); err == nil {
		t.Fatal("wrong version must fail")
	}
}

func TestBatchNormStatsSerialized(t *testing.T) {
	// BatchNorm running statistics must ship with the model — without
	// them, inference-mode logits would not reproduce.
	arch := &Arch{Input: []int{1, 4, 4}, Body: []LayerSpec{
		{Kind: KindConv, Out: 2, K: 3, Stride: 1, Pad: 1},
		{Kind: KindNorm},
	}, Classes: 2}
	net, err := arch.Build()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	net.Init(rng)
	// Drive the running statistics away from their Init values.
	x := tensor.New(8, 1, 4, 4)
	x.RandFill(rng, 1)
	for i := range x.Data {
		x.Data[i] += 3
	}
	for i := 0; i < 20; i++ {
		net.Forward(x, true)
	}
	var saved *BatchNorm
	for _, l := range net.Layers {
		if bn, ok := l.(*BatchNorm); ok {
			saved = bn
		}
	}
	var buf bytes.Buffer
	if err := SaveModel(&buf, arch, net); err != nil {
		t.Fatal(err)
	}
	_, net2, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range net2.Layers {
		if bn, ok := l.(*BatchNorm); ok {
			for i := range bn.RunMean {
				if bn.RunMean[i] != saved.RunMean[i] || bn.RunVar[i] != saved.RunVar[i] {
					t.Fatal("loaded BatchNorm statistics must match the saved model")
				}
			}
		}
	}
}
