package nn_test

// Analyze equivalence pins: Arch.Analyze computes by arithmetic what the
// materialized network reports, so over random search-space candidates,
// randomly perturbed layer specs, and fuzzed descriptions, Analyze and a
// layer-by-layer build must accept and reject the same architectures and,
// when both accept, agree on MACs by kind, parameters, activation peaks,
// and MCU memory. A regression table pins the geometries that used to
// panic instead of returning an error.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"solarml/internal/nas"
	"solarml/internal/nn"
)

// buildByLayers is the independent oracle: it materializes an architecture
// layer by layer, letting the layer constructors and their OutShape methods
// do all the shape checking, and any panic they raise
// (a non-positive tensor dimension, a collapsed output, a division by a zero
// window or stride) counts as a rejection. Up front it applies the rules no
// layer enforces on its own: Build's class-count and Dense-ordering rules,
// plus the geometry Analyze rejects although a layer would silently accept
// it (an empty or non-positive input shape, a non-positive Conv kernel or
// stride, negative padding).
func buildByLayers(a *nn.Arch) (net *nn.Network, err error) {
	defer func() {
		if r := recover(); r != nil {
			net, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	if a.Classes < 2 || len(a.Input) == 0 {
		return nil, errors.New("need ≥2 classes and an input shape")
	}
	for _, d := range a.Input {
		if d <= 0 {
			return nil, errors.New("non-positive input dimension")
		}
	}
	shape := append([]int(nil), a.Input...)
	var layers []nn.Layer
	add := func(l nn.Layer) {
		layers = append(layers, l)
		shape = l.OutShape(shape)
	}
	dense := false
	for _, s := range a.Body {
		if dense && s.Kind != nn.KindDense && s.Kind != nn.KindReLU {
			return nil, errors.New("non-Dense layer after Dense")
		}
		if (s.Kind == nn.KindConv || s.Kind == nn.KindDWConv) && (s.K <= 0 || s.Stride <= 0 || s.Pad < 0) {
			return nil, errors.New("invalid convolution geometry")
		}
		switch s.Kind {
		case nn.KindConv:
			add(nn.NewConv2D(shape[0], s.Out, s.K, s.Stride, s.Pad))
		case nn.KindDWConv:
			add(nn.NewDepthwiseConv2D(shape[0], s.K, s.Stride, s.Pad))
		case nn.KindDense:
			if !dense && len(shape) > 1 {
				add(nn.NewFlatten())
			}
			add(nn.NewDense(volume(shape), s.Out))
			dense = true
		case nn.KindMaxPool:
			add(nn.NewMaxPool2D(s.K))
		case nn.KindAvgPool:
			add(nn.NewAvgPool2D(s.K))
		case nn.KindNorm:
			add(nn.NewBatchNorm(shape[0]))
		case nn.KindReLU:
			add(nn.NewReLU())
		case nn.KindFlatten:
			add(nn.NewFlatten())
		default:
			return nil, fmt.Errorf("kind %d has no architecture layer", s.Kind)
		}
	}
	if len(shape) > 1 {
		add(nn.NewFlatten())
	}
	add(nn.NewDense(shape[0], a.Classes))
	return nn.NewNetwork(a.Input, layers...), nil
}

func volume(shape []int) int {
	v := 1
	for _, d := range shape {
		v *= d
	}
	return v
}

// checkAgreement fails t unless Analyze and the layer-by-layer oracle agree
// on a, and — when withBuild is set — Build agrees too. It reports whether
// a was accepted.
func checkAgreement(t *testing.T, a *nn.Arch, withBuild bool) bool {
	t.Helper()
	an, aerr := a.Analyze()
	ref, rerr := buildByLayers(a)
	if (aerr == nil) != (rerr == nil) {
		t.Fatalf("%s: Analyze err=%v, layer build err=%v", a, aerr, rerr)
	}
	if withBuild {
		net, berr := a.Build()
		if (aerr == nil) != (berr == nil) {
			t.Fatalf("%s: Analyze err=%v, Build err=%v", a, aerr, berr)
		}
		if berr == nil && (len(net.Layers) != len(ref.Layers) || net.ParamCount() != ref.ParamCount()) {
			t.Fatalf("%s: Build made %d layers / %d params, layer build %d / %d",
				a, len(net.Layers), net.ParamCount(), len(ref.Layers), ref.ParamCount())
		}
	}
	if aerr != nil {
		return false
	}
	if got, want := an.MACs, ref.MACsByKind(); got != want {
		t.Fatalf("%s: MACs %+v, built %+v", a, got, want)
	}
	if got, want := an.MACs.Total(), ref.TotalMACs(); got != want {
		t.Fatalf("%s: TotalMACs %d, built %d", a, got, want)
	}
	if got, want := an.Params, ref.ParamCount(); got != want {
		t.Fatalf("%s: Params %d, built %d", a, got, want)
	}
	if got, want := an.PeakActivation, ref.PeakActivation(); got != want {
		t.Fatalf("%s: PeakActivation %d, built %d", a, got, want)
	}
	for _, wb := range []int{8, 16, 32} {
		if got, want := an.MemoryBytes(wb, 8), ref.MemoryBytes(wb, 8); got != want {
			t.Fatalf("%s: MemoryBytes(%d, 8) %d, built %d", a, wb, got, want)
		}
	}
	return true
}

// perturb applies one random edit to a: a layer field, a layer kind, an
// inserted or deleted layer, the class count, or the input shape. Values
// stay small so every accepted perturbation is cheap to build.
func perturb(rng *rand.Rand, a *nn.Arch) {
	small := func() int { return rng.Intn(12) - 2 }
	switch op := rng.Intn(7); {
	case op == 0 && len(a.Body) > 0:
		s := &a.Body[rng.Intn(len(a.Body))]
		switch rng.Intn(4) {
		case 0:
			s.Out = small()
		case 1:
			s.K = small()
		case 2:
			s.Stride = small()
		default:
			s.Pad = small()
		}
	case op == 1 && len(a.Body) > 0:
		a.Body[rng.Intn(len(a.Body))].Kind = nn.LayerKind(rng.Intn(int(nn.NumLayerKinds)+3) - 1)
	case op == 2:
		i := rng.Intn(len(a.Body) + 1)
		s := nn.LayerSpec{
			Kind: nn.LayerKind(rng.Intn(int(nn.NumLayerKinds) + 2)),
			Out:  small(), K: small(), Stride: small(), Pad: small(),
		}
		a.Body = append(a.Body[:i], append([]nn.LayerSpec{s}, a.Body[i:]...)...)
	case op == 3 && len(a.Body) > 0:
		i := rng.Intn(len(a.Body))
		a.Body = append(a.Body[:i], a.Body[i+1:]...)
	case op == 4:
		a.Classes = rng.Intn(6) - 1
	case op == 5 && len(a.Input) > 0:
		a.Input[rng.Intn(len(a.Input))] = rng.Intn(40) - 2
	default:
		if len(a.Input) > 0 && rng.Intn(2) == 0 {
			a.Input = a.Input[:len(a.Input)-1]
		} else {
			a.Input = append(a.Input, 1+rng.Intn(4))
		}
	}
}

func TestAnalyzeMatchesBuild(t *testing.T) {
	n := 10_000
	if testing.Short() {
		n = 1_000
	}
	spaces := []*nas.Space{nas.GestureSpace(), nas.KWSSpace()}
	rng := rand.New(rand.NewSource(13))
	accepted := 0
	for i := 0; i < n; i++ {
		a := spaces[i%len(spaces)].RandomCandidate(rng).Arch
		if i%2 == 1 {
			for k := 1 + rng.Intn(3); k > 0; k-- {
				perturb(rng, a)
			}
		}
		// Build is Analyze plus materialization; cross-check it on a
		// sample, since every build allocates the full weight tensors.
		if checkAgreement(t, a, i%16 == 0) {
			accepted++
		}
	}
	// Both halves of the property must be exercised.
	if accepted < n/2 || accepted == n {
		t.Fatalf("%d of %d architectures accepted; want a mix", accepted, n)
	}
}

// TestAnalyzeRejectsBadGeometry is the regression table for descriptions
// that must fail with an error — never a panic — from Analyze, Validate,
// and Build. Untrusted checkpoint and memo bytes reach Validate, and the
// first three cases divide by zero or size a tensor at zero if any layer
// is built before the geometry is checked.
func TestAnalyzeRejectsBadGeometry(t *testing.T) {
	img := []int{1, 8, 8}
	body := func(s ...nn.LayerSpec) []nn.LayerSpec { return s }
	for _, tc := range []struct {
		name string
		arch nn.Arch
	}{
		{"maxpool-k0", nn.Arch{Input: img, Body: body(nn.LayerSpec{Kind: nn.KindMaxPool, K: 0}), Classes: 2}},
		{"conv-stride0", nn.Arch{Input: img, Body: body(nn.LayerSpec{Kind: nn.KindConv, Out: 4, K: 3, Stride: 0, Pad: 1}), Classes: 2}},
		{"conv-out0", nn.Arch{Input: img, Body: body(nn.LayerSpec{Kind: nn.KindConv, Out: 0, K: 3, Stride: 1, Pad: 1}), Classes: 2}},
		{"avgpool-k0", nn.Arch{Input: img, Body: body(nn.LayerSpec{Kind: nn.KindAvgPool, K: 0}), Classes: 2}},
		{"maxpool-k-negative", nn.Arch{Input: img, Body: body(nn.LayerSpec{Kind: nn.KindMaxPool, K: -2}), Classes: 2}},
		{"pool-too-large", nn.Arch{Input: []int{1, 2, 2}, Body: body(nn.LayerSpec{Kind: nn.KindMaxPool, K: 4}), Classes: 2}},
		{"conv-k0", nn.Arch{Input: img, Body: body(nn.LayerSpec{Kind: nn.KindConv, Out: 4, K: 0, Stride: 1}), Classes: 2}},
		{"conv-k-negative", nn.Arch{Input: img, Body: body(nn.LayerSpec{Kind: nn.KindConv, Out: 4, K: -1, Stride: 1}), Classes: 2}},
		{"conv-stride-negative", nn.Arch{Input: img, Body: body(nn.LayerSpec{Kind: nn.KindConv, Out: 4, K: 3, Stride: -1}), Classes: 2}},
		{"conv-out-negative", nn.Arch{Input: img, Body: body(nn.LayerSpec{Kind: nn.KindConv, Out: -4, K: 3, Stride: 1}), Classes: 2}},
		{"conv-pad-negative", nn.Arch{Input: img, Body: body(nn.LayerSpec{Kind: nn.KindConv, Out: 4, K: 1, Stride: 1, Pad: -1}), Classes: 2}},
		{"conv-collapses", nn.Arch{Input: img, Body: body(nn.LayerSpec{Kind: nn.KindConv, Out: 4, K: 9, Stride: 1}), Classes: 2}},
		{"conv-on-vector", nn.Arch{Input: []int{16}, Body: body(nn.LayerSpec{Kind: nn.KindConv, Out: 4, K: 3, Stride: 1, Pad: 1}), Classes: 2}},
		{"dwconv-stride0", nn.Arch{Input: img, Body: body(nn.LayerSpec{Kind: nn.KindDWConv, K: 3, Stride: 0}), Classes: 2}},
		{"dwconv-pad-negative", nn.Arch{Input: img, Body: body(nn.LayerSpec{Kind: nn.KindDWConv, K: 1, Stride: 1, Pad: -1}), Classes: 2}},
		{"dense-out0", nn.Arch{Input: img, Body: body(nn.LayerSpec{Kind: nn.KindDense, Out: 0}), Classes: 2}},
		{"norm-on-vector", nn.Arch{Input: []int{16}, Body: body(nn.LayerSpec{Kind: nn.KindNorm}), Classes: 2}},
		{"conv-after-dense", nn.Arch{Input: img, Body: body(nn.LayerSpec{Kind: nn.KindDense, Out: 8}, nn.LayerSpec{Kind: nn.KindConv, Out: 4, K: 1, Stride: 1}), Classes: 2}},
		{"kind-past-enum", nn.Arch{Input: []int{16}, Body: body(nn.LayerSpec{Kind: nn.NumLayerKinds}), Classes: 2}},
		{"unknown-kind", nn.Arch{Input: []int{16}, Body: body(nn.LayerSpec{Kind: nn.LayerKind(99)}), Classes: 2}},
		{"one-class", nn.Arch{Input: img, Classes: 1}},
		{"no-input", nn.Arch{Classes: 2}},
		{"zero-input-dim", nn.Arch{Input: []int{1, 0, 8}, Body: body(nn.LayerSpec{Kind: nn.KindConv, Out: 4, K: 1, Stride: 1, Pad: 1}), Classes: 2}},
		{"huge-input", nn.Arch{Input: []int{1 << 30, 1 << 30, 1 << 30}, Classes: 2}},
		{"huge-kernel", nn.Arch{Input: img, Body: body(nn.LayerSpec{Kind: nn.KindConv, Out: 1, K: 1 << 62, Stride: 1, Pad: 1 << 62}), Classes: 2}},
		{"huge-dense", nn.Arch{Input: img, Body: body(nn.LayerSpec{Kind: nn.KindDense, Out: 1 << 39}), Classes: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.arch
			if _, err := a.Analyze(); err == nil {
				t.Fatal("Analyze accepted the architecture")
			}
			if err := a.Validate(); err == nil {
				t.Fatal("Validate accepted the architecture")
			}
			if _, err := a.Build(); err == nil {
				t.Fatal("Build accepted the architecture")
			}
		})
	}
}

// TestAnalyzeCountsImplicitLayers pins the activation walk over the layers
// Build inserts: the Flatten before the first Dense and the classifier
// head. Input (1,8,8) → Conv(2,k1) gives volumes 64 → 128 → Flatten 128 →
// Dense 10 → head 3, so the largest consecutive pair is the Flatten's
// 128+128.
func TestAnalyzeCountsImplicitLayers(t *testing.T) {
	a := &nn.Arch{Input: []int{1, 8, 8}, Body: []nn.LayerSpec{
		{Kind: nn.KindConv, Out: 2, K: 1, Stride: 1},
		{Kind: nn.KindDense, Out: 10},
	}, Classes: 3}
	an, err := a.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if an.PeakPair != 256 || an.PeakActivation != 128 {
		t.Fatalf("peak pair %d, peak activation %d; want 256, 128", an.PeakPair, an.PeakActivation)
	}
	want := nn.KindMACs{}.With(nn.KindConv, 128).With(nn.KindFlatten, 0).With(nn.KindDense, 128*10+10*3)
	if an.MACs != want {
		t.Fatalf("MACs %+v, want %+v", an.MACs, want)
	}
	checkAgreement(t, a, true)
}

// FuzzArchAnalyze decodes arbitrary bytes into a small architecture and
// checks that Analyze, Build, and the layer-by-layer oracle agree on it.
// Explore with `go test -fuzz=FuzzArchAnalyze ./internal/nn`.
func FuzzArchAnalyze(f *testing.F) {
	// (1,8,8) → Conv(4,k3,s1,p1) → ReLU → MaxPool(2) → Dense(16), 3 classes.
	f.Add([]byte{3, 2, 1, 8, 8, 4, 0, 4, 3, 1, 1, 6, 0, 0, 0, 0, 3, 0, 2, 0, 0, 2, 16, 0, 0, 0})
	// (16) → Dense(32) → ReLU, 2 classes.
	f.Add([]byte{2, 0, 16, 2, 2, 32, 0, 0, 0, 6, 0, 0, 0, 0})
	// (1,2,2) → MaxPool(0): a zero window.
	f.Add([]byte{2, 2, 1, 2, 2, 1, 3, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(int8(data[0]))
			data = data[1:]
			return b
		}
		a := &nn.Arch{Classes: next() % 8}
		rank := (next()&3)%3 + 1
		for i := 0; i < rank; i++ {
			a.Input = append(a.Input, next()%17)
		}
		for n := next() & 7; n > 0; n-- {
			a.Body = append(a.Body, nn.LayerSpec{
				Kind: nn.LayerKind(next() % 10), Out: next() % 33,
				K: next() % 9, Stride: next() % 5, Pad: next() % 5,
			})
		}
		checkAgreement(t, a, true)
	})
}
