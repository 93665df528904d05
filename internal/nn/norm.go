package nn

import (
	"fmt"
	"math"
	"math/rand"

	"solarml/internal/tensor"
)

// BatchNorm normalizes per channel over the batch and spatial dimensions,
// then applies a learned scale (gamma) and shift (beta). In inference mode
// it uses exponential running statistics accumulated during training.
type BatchNorm struct {
	C       int
	Eps     float64
	Mom     float64 // running-statistics momentum
	Gamma   *Param  // (C)
	Beta    *Param  // (C)
	RunMean []float64
	RunVar  []float64

	binding

	lastXHat *tensor.Tensor
	lastStd  []float64
	lastN    int // batch × spatial count per channel

	// Current-dispatch operands + cached range closures (see ReLU).
	curX, curOut, curGrad, curDX []float64
	curTrain                     bool
	curN, curC, curPlane         int
	curM                         float64
	fwdFn, bwdFn                 func(c0, c1 int)
}

// NewBatchNorm returns a batch-normalization layer for c channels.
func NewBatchNorm(c int) *BatchNorm {
	bn := &BatchNorm{
		C: c, Eps: 1e-5, Mom: 0.9,
		Gamma:   newParam(c),
		Beta:    newParam(c),
		RunMean: make([]float64, c),
		RunVar:  make([]float64, c),
	}
	return bn
}

// Kind implements Layer.
func (b *BatchNorm) Kind() LayerKind { return KindNorm }

// OutShape implements Layer.
func (b *BatchNorm) OutShape(in []int) []int {
	if len(in) != 3 || in[0] != b.C {
		panic(fmt.Sprintf("nn: BatchNorm expects (C=%d,H,W), got %v", b.C, in))
	}
	out := make([]int, len(in))
	copy(out, in)
	return out
}

// Init sets gamma to one, beta to zero and unit running variance.
func (b *BatchNorm) Init(rng *rand.Rand) {
	b.Gamma.Value.Fill(1)
	b.Beta.Value.Zero()
	for i := range b.RunVar {
		b.RunVar[i] = 1
		b.RunMean[i] = 0
	}
}

// Forward implements Layer. Channels partition the work: every channel's
// statistics are reduced by a single worker in ascending order and its
// activations touch disjoint strided planes, so the fan-out reproduces the
// serial bits at any worker count.
func (b *BatchNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	plane := h * w
	out := b.arena.tensor(b, slotOut, n, c, h, w)
	if train {
		b.lastXHat = b.arena.tensor(b, slotXHat, n, c, h, w)
		b.lastStd = b.arena.floats(b, slotStd, c)
		b.lastN = n * plane
	}
	b.curX, b.curOut = x.Data, out.Data
	b.curTrain, b.curN, b.curC, b.curPlane = train, n, c, plane
	if b.fwdFn == nil {
		b.fwdFn = b.forwardChannels
	}
	b.ctx.ParallelFor(c, 6*n*plane, b.fwdFn)
	return out
}

// forwardChannels runs the per-channel normalization for channels [c0, c1).
func (b *BatchNorm) forwardChannels(c0, c1 int) {
	x, out := b.curX, b.curOut
	train, n, c, plane := b.curTrain, b.curN, b.curC, b.curPlane
	for ch := c0; ch < c1; ch++ {
		var mean, variance float64
		if train {
			s := 0.0
			for i := 0; i < n; i++ {
				d := x[(i*c+ch)*plane : (i*c+ch+1)*plane]
				for _, v := range d {
					s += v
				}
			}
			mean = s / float64(n*plane)
			s = 0.0
			for i := 0; i < n; i++ {
				d := x[(i*c+ch)*plane : (i*c+ch+1)*plane]
				for _, v := range d {
					dv := v - mean
					s += dv * dv
				}
			}
			variance = s / float64(n*plane)
			b.RunMean[ch] = b.Mom*b.RunMean[ch] + (1-b.Mom)*mean
			b.RunVar[ch] = b.Mom*b.RunVar[ch] + (1-b.Mom)*variance
		} else {
			mean, variance = b.RunMean[ch], b.RunVar[ch]
		}
		std := math.Sqrt(variance + b.Eps)
		g, bb := b.Gamma.Value.Data[ch], b.Beta.Value.Data[ch]
		for i := 0; i < n; i++ {
			src := x[(i*c+ch)*plane : (i*c+ch+1)*plane]
			dst := out[(i*c+ch)*plane : (i*c+ch+1)*plane]
			for j, v := range src {
				xh := (v - mean) / std
				if train {
					b.lastXHat.Data[(i*c+ch)*plane+j] = xh
				}
				dst[j] = g*xh + bb
			}
		}
		if train {
			b.lastStd[ch] = std
		}
	}
}

// Backward implements Layer using the standard batch-norm gradient; the
// channel partition mirrors Forward, so gradient sums keep serial order.
func (b *BatchNorm) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n, c := grad.Shape[0], grad.Shape[1]
	plane := grad.Shape[2] * grad.Shape[3]
	dx := b.arena.tensor(b, slotDX, grad.Shape...)
	b.curGrad, b.curDX = grad.Data, dx.Data
	b.curM, b.curN, b.curC, b.curPlane = float64(b.lastN), n, c, plane
	if b.bwdFn == nil {
		b.bwdFn = b.backwardChannels
	}
	b.ctx.ParallelFor(c, 8*n*plane, b.bwdFn)
	return dx
}

// backwardChannels computes the gradient for channels [c0, c1).
func (b *BatchNorm) backwardChannels(c0, c1 int) {
	grad, dx := b.curGrad, b.curDX
	m, n, c, plane := b.curM, b.curN, b.curC, b.curPlane
	for ch := c0; ch < c1; ch++ {
		g := b.Gamma.Value.Data[ch]
		var sumDy, sumDyXhat float64
		for i := 0; i < n; i++ {
			off := (i*c + ch) * plane
			for j := 0; j < plane; j++ {
				dy := grad[off+j]
				sumDy += dy
				sumDyXhat += dy * b.lastXHat.Data[off+j]
			}
		}
		b.Beta.Grad.Data[ch] += sumDy
		b.Gamma.Grad.Data[ch] += sumDyXhat
		inv := g / (m * b.lastStd[ch])
		for i := 0; i < n; i++ {
			off := (i*c + ch) * plane
			for j := 0; j < plane; j++ {
				dy := grad[off+j]
				xh := b.lastXHat.Data[off+j]
				dx[off+j] = inv * (m*dy - sumDy - xh*sumDyXhat)
			}
		}
	}
}

// Params implements Layer.
func (b *BatchNorm) Params() []*Param { return []*Param{b.Gamma, b.Beta} }

// MACs implements Layer: one scale and one shift per element.
func (b *BatchNorm) MACs(in []int) int64 {
	return 2 * int64(shapeVolume(in))
}
