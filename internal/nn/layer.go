// Package nn implements the tinyML neural-network substrate used by solarml:
// the layer types that appear in the paper's inference energy model (Conv,
// depthwise Conv, Dense, Max/Avg pooling, BatchNorm), softmax cross-entropy
// training with SGD+momentum, and the MAC / parameter / peak-RAM accounting
// that the NAS constraints and energy models consume.
//
// Tensors are laid out NCHW for convolutional layers and (N, F) for dense
// layers. All layers operate on a whole minibatch per call.
package nn

import (
	"math/rand"

	"solarml/internal/compute"
	"solarml/internal/tensor"
)

// LayerKind identifies a layer type for energy accounting. The paper's
// inference energy model assigns one regression coefficient per kind
// (E_M = Σ aᵢ·MACsᵢ + b), so kinds must distinguish every compute layer.
type LayerKind int

const (
	KindConv LayerKind = iota
	KindDWConv
	KindDense
	KindMaxPool
	KindAvgPool
	KindNorm
	KindReLU
	KindFlatten
	KindDropout
	// NumLayerKinds is the number of layer kinds: kinds are the integers
	// in [0, NumLayerKinds).
	NumLayerKinds
)

// String returns the canonical kind name.
func (k LayerKind) String() string {
	switch k {
	case KindConv:
		return "Conv"
	case KindDWConv:
		return "DWConv"
	case KindDense:
		return "Dense"
	case KindMaxPool:
		return "MaxPool"
	case KindAvgPool:
		return "AvgPool"
	case KindNorm:
		return "Norm"
	case KindReLU:
		return "ReLU"
	case KindFlatten:
		return "Flatten"
	case KindDropout:
		return "Dropout"
	}
	return "Unknown"
}

// ComputeKinds lists the layer kinds that carry MACs and therefore appear in
// the layer-wise energy model.
func ComputeKinds() []LayerKind {
	return []LayerKind{KindConv, KindDWConv, KindDense, KindMaxPool, KindAvgPool, KindNorm}
}

// KindMACs is a per-sample MAC breakdown by layer kind, the feature vector
// of the layer-wise inference energy model E_M = Σ aᵢ·MACsᵢ + b. A kind is
// present once a layer of it has been added, so a network's zero-MAC ReLU
// and Flatten layers stay distinct from kinds it does not hold. The zero
// value is the empty breakdown, and two breakdowns compare with ==.
type KindMACs struct {
	macs  [NumLayerKinds]int64
	kinds uint16 // bit k set when kind k is present
}

// Add marks kind k present and adds n MACs to it.
func (m *KindMACs) Add(k LayerKind, n int64) {
	m.kinds |= 1 << k
	m.macs[k] += n
}

// With returns a copy of m with n MACs added to kind k.
func (m KindMACs) With(k LayerKind, n int64) KindMACs {
	m.Add(k, n)
	return m
}

// Of returns kind k's MAC count (zero when absent).
func (m KindMACs) Of(k LayerKind) int64 { return m.macs[k] }

// Has reports whether kind k is present.
func (m KindMACs) Has(k LayerKind) bool { return m.kinds&(1<<k) != 0 }

// Total returns the MAC count summed over all kinds.
func (m KindMACs) Total() int64 {
	var t int64
	for _, n := range m.macs {
		t += n
	}
	return t
}

// Param is a trainable tensor together with its gradient and SGD momentum
// buffer. Layers expose their parameters through Params so the optimizer can
// update them uniformly.
//
// Grad and Momentum are training state: nil until the first backward pass
// (ensureGrad) and the first optimizer step (SGD.StepCtx) allocate them
// zeroed, so a network built only to infer or to report its MACs holds its
// weights once, not three times.
type Param struct {
	Value    *tensor.Tensor
	Grad     *tensor.Tensor
	Momentum *tensor.Tensor
}

func newParam(shape ...int) *Param {
	return &Param{Value: tensor.New(shape...)}
}

// ensureGrad allocates a zeroed gradient for each parameter without one.
// Layers call it at the top of Backward, before any parallel accumulation.
func ensureGrad(ps ...*Param) {
	for _, p := range ps {
		if p.Grad == nil {
			p.Grad = tensor.New(p.Value.Shape...)
		}
	}
}

// zeroGrad clears the gradient; one not yet allocated is zero already.
func (p *Param) zeroGrad() {
	if p.Grad != nil {
		p.Grad.Zero()
	}
}

// Layer is one stage of a sequential network.
type Layer interface {
	// Kind reports the layer type for energy accounting.
	Kind() LayerKind
	// OutShape returns the per-sample output shape for a per-sample input
	// shape (no batch dimension).
	OutShape(in []int) []int
	// Forward consumes a batched input and returns the batched output.
	// train selects training behaviour (e.g. batch statistics in Norm).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes the gradient of the loss with respect to the layer
	// output and returns the gradient with respect to the layer input,
	// accumulating parameter gradients along the way. It must be called
	// after Forward on the same minibatch.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the trainable parameters (possibly empty).
	Params() []*Param
	// MACs returns the multiply-accumulate count for one sample with the
	// given per-sample input shape.
	MACs(in []int) int64
	// Init initializes parameters from rng. No-op for parameter-free layers.
	Init(rng *rand.Rand)
}

// binding is the compute context and step arena a layer runs on. Every
// layer in this package embeds one. NewNetwork and NewMultiExit bind each
// layer to the network's own arena and the serial default context, and
// SetCompute rebinds the context, so kernels never see a nil context or
// arena. Layer outputs and input gradients live in the arena: a layer's
// Forward/Backward results are valid only until its next Forward/Backward
// call — the lifetime the training loop needs.
type binding struct {
	ctx   *compute.Context
	arena *Arena
}

func (b *binding) bind(ctx *compute.Context, a *Arena) { b.ctx, b.arena = ctx, a }

// binder is implemented by every layer that embeds a binding.
type binder interface {
	bind(ctx *compute.Context, a *Arena)
}

// bindLayers binds every layer to ctx and a.
func bindLayers(layers []Layer, ctx *compute.Context, a *Arena) {
	for _, l := range layers {
		if b, ok := l.(binder); ok {
			b.bind(ctx, a)
		}
	}
}

// shapeVolume returns the product of the dimensions.
func shapeVolume(shape []int) int {
	v := 1
	for _, d := range shape {
		v *= d
	}
	return v
}
