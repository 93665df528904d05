package nn

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"solarml/internal/tensor"
)

// barDataset builds the vertical/horizontal bar task.
func barDataset(rng *rand.Rand, n, side int) (*tensor.Tensor, []int) {
	x := tensor.New(n, 1, side, side)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 2
		pos := rng.Intn(side)
		for j := 0; j < side; j++ {
			if cls == 0 {
				x.Set(1+rng.NormFloat64()*0.15, i, 0, j, pos)
			} else {
				x.Set(1+rng.NormFloat64()*0.15, i, 0, pos, j)
			}
		}
		y[i] = cls
	}
	return x, y
}

func barArch(side int) *Arch {
	return &Arch{
		Input: []int{1, side, side},
		Body: []LayerSpec{
			{Kind: KindConv, Out: 4, K: 3, Stride: 1, Pad: 1},
			{Kind: KindReLU},
			{Kind: KindMaxPool, K: 2}, // exit 0 here (index 2)
			{Kind: KindConv, Out: 8, K: 3, Stride: 1, Pad: 1},
			{Kind: KindReLU},
			{Kind: KindMaxPool, K: 2},
		},
		Classes: 2,
	}
}

func trainedMultiExit(t *testing.T) (*MultiExitNetwork, *tensor.Tensor, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(70))
	x, y := barDataset(rng, 160, 8)
	m, err := NewMultiExit(barArch(8), []int{2})
	if err != nil {
		t.Fatal(err)
	}
	m.Init(rng)
	m.Fit(x, y, TrainConfig{Epochs: 20, BatchSize: 16, LR: 0.05, Momentum: 0.9, Seed: 4})
	return m, x, y
}

func TestNewMultiExitStructure(t *testing.T) {
	m, err := NewMultiExit(barArch(8), []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumExits() != 2 {
		t.Fatalf("%d exits, want 2", m.NumExits())
	}
	if len(m.Stages[0]) != 3 || len(m.Stages[1]) != 3 {
		t.Fatalf("stage sizes %d/%d", len(m.Stages[0]), len(m.Stages[1]))
	}
}

func TestNewMultiExitValidation(t *testing.T) {
	if _, err := NewMultiExit(barArch(8), []int{5}); err == nil {
		t.Fatal("exit at the last body layer must be rejected (it duplicates the final exit)")
	}
	if _, err := NewMultiExit(barArch(8), []int{3, 3}); err == nil {
		t.Fatal("non-increasing exits must be rejected")
	}
	if _, err := NewMultiExit(barArch(8), []int{-1}); err == nil {
		t.Fatal("negative exit index must be rejected")
	}
}

func TestMultiExitMACsOrdering(t *testing.T) {
	m, err := NewMultiExit(barArch(8), []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if m.MACsByKindThroughExit(0).Total() >= m.MACsByKindThroughExit(1).Total() {
		t.Fatal("a deeper exit must cost more MACs")
	}
}

func TestMultiExitTrainingBothExitsLearn(t *testing.T) {
	m, x, y := trainedMultiExit(t)
	acc0 := m.AccuracyAtExit(x, y, 0)
	acc1 := m.AccuracyAtExit(x, y, 1)
	if acc0 < 0.8 {
		t.Fatalf("early exit accuracy %.3f", acc0)
	}
	if acc1 < 0.8 {
		t.Fatalf("final exit accuracy %.3f", acc1)
	}
}

func TestInferConfidentRouting(t *testing.T) {
	m, x, y := trainedMultiExit(t)
	// τ = 0: everything leaves at exit 0.
	all0 := m.InferConfident(x, 0)
	for _, d := range all0 {
		if d.Exit != 0 {
			t.Fatal("τ=0 must route everything through exit 0")
		}
	}
	// τ > 1: everything reaches the final exit.
	all1 := m.InferConfident(x, 1.01)
	for _, d := range all1 {
		if d.Exit != m.NumExits()-1 {
			t.Fatal("τ>1 must route everything through the final exit")
		}
	}
	// A mid threshold keeps overall accuracy high.
	dec := m.InferConfident(x, 0.9)
	correct := 0
	for i, d := range dec {
		if d.Class == y[i] {
			correct++
		}
		if d.Conf < 0 || d.Conf > 1 {
			t.Fatalf("confidence %v out of range", d.Conf)
		}
	}
	if acc := float64(correct) / float64(len(y)); acc < 0.8 {
		t.Fatalf("confident routing accuracy %.3f", acc)
	}
}

func TestDeepestAffordableExit(t *testing.T) {
	m, _, _ := trainedMultiExit(t)
	// Energy proportional to total MACs.
	energyOf := func(macs KindMACs) float64 { return float64(macs.Total()) * 1e-9 }
	e0 := energyOf(m.MACsByKindThroughExit(0))
	e1 := energyOf(m.MACsByKindThroughExit(1))
	if got := m.DeepestAffordableExit(e1+1e-12, energyOf); got != 1 {
		t.Fatalf("full budget should afford exit 1, got %d", got)
	}
	if got := m.DeepestAffordableExit((e0+e1)/2, energyOf); got != 0 {
		t.Fatalf("mid budget should afford exit 0, got %d", got)
	}
	if got := m.DeepestAffordableExit(e0/2, energyOf); got != -1 {
		t.Fatalf("tiny budget should afford nothing, got %d", got)
	}
}

func TestMultiExitThreeExits(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	arch := &Arch{
		Input: []int{1, 8, 8},
		Body: []LayerSpec{
			{Kind: KindConv, Out: 4, K: 3, Stride: 1, Pad: 1},
			{Kind: KindReLU}, // exit 0 (index 1)
			{Kind: KindMaxPool, K: 2},
			{Kind: KindConv, Out: 6, K: 3, Stride: 1, Pad: 1},
			{Kind: KindReLU}, // exit 1 (index 4)
			{Kind: KindMaxPool, K: 2},
		},
		Classes: 2,
	}
	m, err := NewMultiExit(arch, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumExits() != 3 {
		t.Fatalf("%d exits", m.NumExits())
	}
	m.Init(rng)
	x, y := barDataset(rng, 120, 8)
	m.Fit(x, y, TrainConfig{Epochs: 15, BatchSize: 16, LR: 0.05, Momentum: 0.9, Seed: 5})
	// Deeper exits cost more backbone compute; note the *total* through a
	// deeper exit may dip slightly when pooling shrinks its head, so the
	// invariant is against exit 0, not strict monotonicity.
	for k := 1; k < 3; k++ {
		if m.MACsByKindThroughExit(k).Total() <= m.MACsByKindThroughExit(0).Total() {
			t.Fatalf("exit %d should cost more than exit 0", k)
		}
	}
	for k := 0; k < 3; k++ {
		if acc := m.AccuracyAtExit(x, y, k); acc < 0.7 {
			t.Fatalf("exit %d accuracy %.3f", k, acc)
		}
	}
}

// TestMultiExitFitPinned pins joint multi-exit training bit for bit: a
// seeded 2-exit Fit with a tail minibatch (100 samples at batch 16) must
// land on the recorded final loss and on the recorded FNV-64a hash over
// every parameter's value and momentum bits.
func TestMultiExitFitPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	x, y := barDataset(rng, 100, 8)
	m, err := NewMultiExit(barArch(8), []int{2})
	if err != nil {
		t.Fatal(err)
	}
	m.Init(rng)
	loss := m.Fit(x, y, TrainConfig{Epochs: 4, BatchSize: 16, LR: 0.05, Momentum: 0.9, Seed: 8})

	h := fnv.New64a()
	var b [8]byte
	for _, p := range m.Params() {
		for _, ts := range []*tensor.Tensor{p.Value, p.Momentum} {
			for _, v := range ts.Data {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
	}
	const wantLoss, wantHash = uint64(0x3fb92c1300bbd481), uint64(0xf93d70bfd7cded47)
	if got := math.Float64bits(loss); got != wantLoss {
		t.Errorf("final loss bits %#x (%v), want %#x", got, loss, wantLoss)
	}
	if got := h.Sum64(); got != wantHash {
		t.Errorf("parameter hash %#x, want %#x", got, wantHash)
	}
}
