package nn

import (
	"fmt"
	"math"
	"math/rand"

	"solarml/internal/tensor"
)

// Dense is a fully connected layer computing y = x·Wᵀ + b.
// Input shape is (N, In); output shape is (N, Out).
type Dense struct {
	In, Out int
	W       *Param // (Out, In)
	B       *Param // (Out)

	binding
	lastX *tensor.Tensor

	// Bias-gradient dispatch operands + cached range closure (see ReLU).
	curGrad []float64
	curN    int
	dbFn    func(j0, j1 int)
}

// NewDense returns a dense layer with uninitialized parameters;
// call Init before training.
func NewDense(in, out int) *Dense {
	return &Dense{In: in, Out: out, W: newParam(out, in), B: newParam(out)}
}

// Kind implements Layer.
func (d *Dense) Kind() LayerKind { return KindDense }

// OutShape implements Layer.
func (d *Dense) OutShape(in []int) []int {
	if shapeVolume(in) != d.In {
		panic(fmt.Sprintf("nn: Dense expects %d inputs, got shape %v", d.In, in))
	}
	return []int{d.Out}
}

// Init applies He-uniform initialization.
func (d *Dense) Init(rng *rand.Rand) {
	scale := math.Sqrt(6.0 / float64(d.In))
	d.W.Value.RandFill(rng, scale)
	d.B.Value.Zero()
}

// Forward implements Layer. A higher-rank input is flattened per sample.
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n := x.Shape[0]
	x2 := x
	if len(x.Shape) != 2 {
		x2 = d.arena.view(d, slotView, x.Data, n, len(x.Data)/n)
	}
	if x2.Shape[1] != d.In {
		panic(fmt.Sprintf("nn: Dense input width %d, want %d", x2.Shape[1], d.In))
	}
	d.lastX = x2
	out := d.arena.tensor(d, slotOut, n, d.Out)
	// y = x·Wᵀ + b, bias fused into the GEMM epilogue.
	d.ctx.MatMulTransB(out.Data, x2.Data, d.W.Value.Data, d.B.Value.Data, n, d.In, d.Out, false)
	return out
}

// Backward implements Layer.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n := grad.Shape[0]
	// dW (Out, In) += gradᵀ × x, accumulated straight into the gradient.
	d.ctx.MatMulTransA(d.W.Grad.Data, grad.Data, d.lastX.Data, n, d.Out, d.In, true)
	// db += column sums of grad. Partitioned by output column: each worker
	// owns its columns' accumulators and walks samples in ascending order,
	// so every sum sees the serial addition sequence.
	d.curGrad, d.curN = grad.Data, n
	if d.dbFn == nil {
		d.dbFn = d.biasGradRange
	}
	d.ctx.ParallelFor(d.Out, 2*n, d.dbFn)
	// dx (N, In) = grad × W
	dx := d.arena.tensor(d, slotDX, n, d.In)
	d.ctx.MatMul(dx.Data, grad.Data, d.W.Value.Data, nil, n, d.Out, d.In)
	return dx
}

// biasGradRange accumulates db columns [j0, j1), samples ascending.
func (d *Dense) biasGradRange(j0, j1 int) {
	grad, db := d.curGrad, d.B.Grad.Data
	for i := 0; i < d.curN; i++ {
		row := grad[i*d.Out : (i+1)*d.Out]
		for j := j0; j < j1; j++ {
			db[j] += row[j]
		}
	}
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// MACs implements Layer: In×Out multiply-accumulates per sample.
func (d *Dense) MACs(in []int) int64 { return int64(d.In) * int64(d.Out) }
