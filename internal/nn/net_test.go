package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"solarml/internal/tensor"
)

func TestSoftmaxRowsSumToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, k := 1+rng.Intn(5), 2+rng.Intn(6)
		logits := tensor.New(n, k)
		logits.RandFill(rng, 10)
		p := Softmax(logits)
		for i := 0; i < n; i++ {
			s := 0.0
			for j := 0; j < k; j++ {
				v := p.Data[i*k+j]
				if v < 0 || v > 1 {
					return false
				}
				s += v
			}
			if math.Abs(s-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := tensor.New(2, 5)
	a.RandFill(rng, 3)
	b := a.Clone()
	for i := range b.Data {
		b.Data[i] += 100
	}
	pa, pb := Softmax(a), Softmax(b)
	for i := range pa.Data {
		if math.Abs(pa.Data[i]-pb.Data[i]) > 1e-9 {
			t.Fatal("softmax must be shift-invariant per row")
		}
	}
}

func TestMACAccountingKnownValues(t *testing.T) {
	// Conv: OutC·OH·OW·InC·K² = 8·6·6·1·9 = 2592 on 8×8 input, valid padding.
	conv := NewConv2D(1, 8, 3, 1, 0)
	if got := conv.MACs([]int{1, 8, 8}); got != 2592 {
		t.Fatalf("Conv MACs = %d, want 2592", got)
	}
	dense := NewDense(100, 10)
	if got := dense.MACs([]int{100}); got != 1000 {
		t.Fatalf("Dense MACs = %d, want 1000", got)
	}
	dw := NewDepthwiseConv2D(4, 3, 1, 1)
	// C·OH·OW·K² = 4·8·8·9 = 2304 with same padding on 8×8.
	if got := dw.MACs([]int{4, 8, 8}); got != 2304 {
		t.Fatalf("DWConv MACs = %d, want 2304", got)
	}
	mp := NewMaxPool2D(2)
	// C·OH·OW·K² = 4·4·4·4 = 256.
	if got := mp.MACs([]int{4, 8, 8}); got != 256 {
		t.Fatalf("MaxPool MACs = %d, want 256", got)
	}
	bn := NewBatchNorm(4)
	if got := bn.MACs([]int{4, 8, 8}); got != 512 {
		t.Fatalf("Norm MACs = %d, want 512", got)
	}
}

func TestNetworkMACsByKind(t *testing.T) {
	arch := &Arch{
		Input: []int{1, 8, 8},
		Body: []LayerSpec{
			{Kind: KindConv, Out: 4, K: 3, Stride: 1, Pad: 1},
			{Kind: KindNorm},
			{Kind: KindReLU},
			{Kind: KindMaxPool, K: 2},
		},
		Classes: 10,
	}
	net, err := arch.Build()
	if err != nil {
		t.Fatal(err)
	}
	byKind := net.MACsByKind()
	if byKind.Of(KindConv) != 4*8*8*1*9 {
		t.Fatalf("Conv MACs = %d", byKind.Of(KindConv))
	}
	if byKind.Of(KindNorm) != 2*4*8*8 {
		t.Fatalf("Norm MACs = %d", byKind.Of(KindNorm))
	}
	if byKind.Of(KindMaxPool) != 4*4*4*4 {
		t.Fatalf("MaxPool MACs = %d", byKind.Of(KindMaxPool))
	}
	// Classifier head: Dense(4·4·4 → 10).
	if byKind.Of(KindDense) != 64*10 {
		t.Fatalf("Dense MACs = %d", byKind.Of(KindDense))
	}
	if net.TotalMACs() != byKind.Of(KindConv)+byKind.Of(KindNorm)+byKind.Of(KindMaxPool)+byKind.Of(KindDense) {
		t.Fatal("TotalMACs must equal the sum over kinds")
	}
}

func TestMemoryBytesMonotonicInBits(t *testing.T) {
	arch := &Arch{
		Input:   []int{1, 8, 8},
		Body:    []LayerSpec{{Kind: KindConv, Out: 4, K: 3, Stride: 1, Pad: 1}},
		Classes: 4,
	}
	net, err := arch.Build()
	if err != nil {
		t.Fatal(err)
	}
	m8 := net.MemoryBytes(8, 8)
	m32 := net.MemoryBytes(32, 8)
	if m32 <= m8 {
		t.Fatalf("wider weights must cost more RAM: %d vs %d", m32, m8)
	}
	if net.PeakActivation() < 4*8*8 {
		t.Fatalf("peak activation %d too small", net.PeakActivation())
	}
}

func TestArchBuildRejectsCollapsedShapes(t *testing.T) {
	arch := &Arch{
		Input: []int{1, 4, 4},
		Body: []LayerSpec{
			{Kind: KindMaxPool, K: 2},
			{Kind: KindMaxPool, K: 2},
			{Kind: KindMaxPool, K: 2}, // 1×1 input, pool no longer fits
		},
		Classes: 3,
	}
	if err := arch.Validate(); err == nil {
		t.Fatal("expected validation error for collapsed spatial shape")
	}
}

func TestArchBuildRejectsConvAfterDense(t *testing.T) {
	arch := &Arch{
		Input: []int{1, 8, 8},
		Body: []LayerSpec{
			{Kind: KindDense, Out: 16},
			{Kind: KindConv, Out: 4, K: 3, Stride: 1, Pad: 1},
		},
		Classes: 3,
	}
	if err := arch.Validate(); err == nil {
		t.Fatal("expected validation error for conv after dense")
	}
}

func TestArchCloneIsDeep(t *testing.T) {
	a := &Arch{Input: []int{1, 4, 4}, Body: []LayerSpec{{Kind: KindReLU}}, Classes: 2}
	b := a.Clone()
	b.Body[0].Kind = KindNorm
	b.Input[0] = 9
	if a.Body[0].Kind != KindReLU || a.Input[0] != 1 {
		t.Fatal("Clone must deep-copy")
	}
}

// Training sanity: a tiny MLP must separate two Gaussian blobs.
func TestFitLearnsSeparableBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 200
	x := tensor.New(n, 2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 2
		cx := -1.0
		if cls == 1 {
			cx = 1.0
		}
		x.Data[i*2] = cx + rng.NormFloat64()*0.3
		x.Data[i*2+1] = -cx + rng.NormFloat64()*0.3
		y[i] = cls
	}
	net := NewNetwork([]int{2}, NewDense(2, 8), NewReLU(), NewDense(8, 2))
	net.Init(rng)
	net.Fit(x, y, TrainConfig{Epochs: 30, BatchSize: 16, LR: 0.1, Momentum: 0.9, Seed: 1})
	if acc := net.Accuracy(x, y); acc < 0.95 {
		t.Fatalf("MLP failed to learn blobs: accuracy %.2f", acc)
	}
}

// Training sanity: a small CNN must learn a vertical-vs-horizontal bar task.
func TestFitLearnsBarOrientation(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const n, side = 120, 8
	x := tensor.New(n, 1, side, side)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 2
		pos := rng.Intn(side)
		for j := 0; j < side; j++ {
			if cls == 0 {
				x.Set(1+rng.NormFloat64()*0.1, i, 0, j, pos) // vertical bar
			} else {
				x.Set(1+rng.NormFloat64()*0.1, i, 0, pos, j) // horizontal bar
			}
		}
		y[i] = cls
	}
	arch := &Arch{
		Input: []int{1, side, side},
		Body: []LayerSpec{
			{Kind: KindConv, Out: 4, K: 3, Stride: 1, Pad: 1},
			{Kind: KindReLU},
			{Kind: KindMaxPool, K: 2},
		},
		Classes: 2,
	}
	net, err := arch.Build()
	if err != nil {
		t.Fatal(err)
	}
	net.Init(rng)
	net.Fit(x, y, TrainConfig{Epochs: 15, BatchSize: 16, LR: 0.05, Momentum: 0.9, Seed: 2})
	if acc := net.Accuracy(x, y); acc < 0.9 {
		t.Fatalf("CNN failed bar task: accuracy %.2f", acc)
	}
}

func TestBatchNormInferenceUsesRunningStats(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	bn := NewBatchNorm(1)
	bn.Init(rng)
	bindLayer(bn)
	x := tensor.New(8, 1, 2, 2)
	x.RandFill(rng, 1)
	for i := range x.Data {
		x.Data[i] += 5 // shifted distribution
	}
	for i := 0; i < 50; i++ {
		bn.Forward(x, true)
	}
	// Inference output on the same data should now be roughly normalized.
	out := bn.Forward(x, false)
	if m := out.Mean(); math.Abs(m) > 0.5 {
		t.Fatalf("inference-mode mean %.3f, want ≈0", m)
	}
}

func TestSGDStepMovesDownhill(t *testing.T) {
	p := newParam(1)
	p.Value.Data[0] = 1.0
	ensureGrad(p)
	p.Grad.Data[0] = 2.0 // dL/dw > 0 → w must decrease
	opt := &SGD{LR: 0.1}
	opt.StepCtx(serialContext, []*Param{p})
	if p.Value.Data[0] >= 1.0 {
		t.Fatalf("SGD moved uphill: %v", p.Value.Data[0])
	}
}

func TestLayerKindStrings(t *testing.T) {
	want := map[LayerKind]string{
		KindConv: "Conv", KindDWConv: "DWConv", KindDense: "Dense",
		KindMaxPool: "MaxPool", KindAvgPool: "AvgPool", KindNorm: "Norm",
		KindReLU: "ReLU", KindFlatten: "Flatten",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("Kind %d String = %q, want %q", k, k.String(), s)
		}
	}
	if len(ComputeKinds()) != 6 {
		t.Fatalf("ComputeKinds = %v", ComputeKinds())
	}
}
