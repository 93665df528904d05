package nn

import (
	"fmt"
	"math/rand"

	"solarml/internal/tensor"
)

// Dropout zeroes a random fraction of activations during training (inverted
// dropout: survivors are scaled by 1/(1−p) so inference needs no change).
// It carries no MACs and is a no-op in inference mode. Not part of the
// Table II search space; available for hand-built training recipes.
type Dropout struct {
	// P is the drop probability in [0, 1).
	P float64

	binding
	rng  *rand.Rand
	mask []float64

	// Backward operands + cached range closure (see ReLU).
	curGrad, curDX []float64
	bwdFn          func(i0, i1 int)
}

// NewDropout returns a dropout layer with the given drop probability.
func NewDropout(p float64) *Dropout {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("nn: dropout probability %v outside [0,1)", p))
	}
	return &Dropout{P: p}
}

// Kind implements Layer (dropout shares ReLU's zero-cost accounting).
func (d *Dropout) Kind() LayerKind { return KindDropout }

// OutShape implements Layer.
func (d *Dropout) OutShape(in []int) []int {
	out := make([]int, len(in))
	copy(out, in)
	return out
}

// Init seeds the layer's mask generator.
func (d *Dropout) Init(rng *rand.Rand) {
	d.rng = rand.New(rand.NewSource(rng.Int63()))
}

// Forward implements Layer. Mask generation stays serial: the rng stream
// must be consumed in element order for seeded runs to reproduce.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || d.P == 0 {
		d.mask = nil
		return x
	}
	if d.rng == nil {
		panic("nn: Dropout used before Init")
	}
	out := d.arena.tensor(d, slotOut, x.Shape...)
	mask := d.arena.floats(d, slotMask, len(x.Data))
	d.mask = mask
	scale := 1 / (1 - d.P)
	for i, v := range x.Data {
		if d.rng.Float64() >= d.P {
			mask[i] = scale
			out.Data[i] = v * scale
		}
	}
	return out
}

// backwardRange applies the mask on [i0, i1).
func (d *Dropout) backwardRange(i0, i1 int) {
	grad, dx, mask := d.curGrad, d.curDX, d.mask
	for i := i0; i < i1; i++ {
		dx[i] = grad[i] * mask[i]
	}
}

// Backward implements Layer: mask application is element-disjoint, so it
// fans out over the compute backend bit-identically.
func (d *Dropout) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.mask == nil {
		return grad
	}
	dx := d.arena.tensor(d, slotDX, grad.Shape...)
	d.curGrad, d.curDX = grad.Data, dx.Data
	if d.bwdFn == nil {
		d.bwdFn = d.backwardRange
	}
	d.ctx.ParallelFor(len(d.mask), 2, d.bwdFn)
	return dx
}

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }

// MACs implements Layer.
func (d *Dropout) MACs(in []int) int64 { return 0 }
