package nn

import (
	"math/rand"

	"solarml/internal/tensor"
)

// ReLU applies max(0, x) element-wise.
type ReLU struct {
	binding
	mask []bool

	// Current-dispatch operands plus the cached range closures: binding the
	// operands through fields lets one closure serve every step, so the
	// steady-state forward/backward allocates nothing.
	curX, curOut, curGrad, curDX []float64
	fwdFn, bwdFn                 func(i0, i1 int)
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Kind implements Layer.
func (r *ReLU) Kind() LayerKind { return KindReLU }

// OutShape implements Layer.
func (r *ReLU) OutShape(in []int) []int {
	out := make([]int, len(in))
	copy(out, in)
	return out
}

// Init implements Layer (no parameters).
func (r *ReLU) Init(rng *rand.Rand) {}

// forwardRange applies the activation on [i0, i1).
func (r *ReLU) forwardRange(i0, i1 int) {
	x, out, mask := r.curX, r.curOut, r.mask
	for i := i0; i < i1; i++ {
		if v := x[i]; v > 0 {
			out[i] = v
			mask[i] = true
		}
	}
}

// backwardRange applies the mask on [i0, i1).
func (r *ReLU) backwardRange(i0, i1 int) {
	grad, dx, mask := r.curGrad, r.curDX, r.mask
	for i := i0; i < i1; i++ {
		if mask[i] {
			dx[i] = grad[i]
		}
	}
}

// Forward implements Layer. The loop is element-disjoint, so it fans out
// over the compute backend bit-identically at any worker count.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := r.arena.tensor(r, slotOut, x.Shape...)
	r.mask = r.arena.boolsBuf(r, slotMask, len(x.Data))
	r.curX, r.curOut = x.Data, out.Data
	if r.fwdFn == nil {
		r.fwdFn = r.forwardRange
	}
	r.ctx.ParallelFor(len(x.Data), 1, r.fwdFn)
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := r.arena.tensor(r, slotDX, grad.Shape...)
	r.curGrad, r.curDX = grad.Data, dx.Data
	if r.bwdFn == nil {
		r.bwdFn = r.backwardRange
	}
	r.ctx.ParallelFor(len(r.mask), 1, r.bwdFn)
	return dx
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// MACs implements Layer: activations carry no multiply-accumulates.
func (r *ReLU) MACs(in []int) int64 { return 0 }

// Flatten reshapes (N, C, H, W) to (N, C·H·W). It exists so architecture
// specs can express the conv→dense transition explicitly.
type Flatten struct {
	binding
	lastIn []int
}

// NewFlatten returns a flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Kind implements Layer.
func (f *Flatten) Kind() LayerKind { return KindFlatten }

// OutShape implements Layer.
func (f *Flatten) OutShape(in []int) []int { return []int{shapeVolume(in)} }

// Init implements Layer (no parameters).
func (f *Flatten) Init(rng *rand.Rand) {}

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.lastIn = append(f.lastIn[:0], x.Shape...)
	n := x.Shape[0]
	return f.arena.view(f, slotView, x.Data, n, len(x.Data)/n)
}

// Backward implements Layer.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return f.arena.view(f, slotView2, grad.Data, f.lastIn...)
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// MACs implements Layer.
func (f *Flatten) MACs(in []int) int64 { return 0 }
