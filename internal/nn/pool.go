package nn

import (
	"fmt"
	"math"
	"math/rand"

	"solarml/internal/tensor"
)

// MaxPool2D applies K×K max pooling with stride equal to K (non-overlapping),
// the configuration used throughout the paper's search space.
type MaxPool2D struct {
	K int

	binding
	lastArg             []int // flat input index chosen per output element
	lastC, lastH, lastW int

	// Current-dispatch operands + cached range closures (see ReLU).
	curX, curOut, curGrad, curDX []float64
	fwdFn, bwdFn                 func(b0, b1 int)
}

// NewMaxPool2D returns a max-pooling layer with window and stride k.
func NewMaxPool2D(k int) *MaxPool2D { return &MaxPool2D{K: k} }

// Kind implements Layer.
func (p *MaxPool2D) Kind() LayerKind { return KindMaxPool }

// OutShape implements Layer.
func (p *MaxPool2D) OutShape(in []int) []int {
	if len(in) != 3 {
		panic(fmt.Sprintf("nn: MaxPool expects (C,H,W), got %v", in))
	}
	oh, ow := in[1]/p.K, in[2]/p.K
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: MaxPool output collapsed for input %v window %d", in, p.K))
	}
	return []int{in[0], oh, ow}
}

// Init implements Layer (no parameters).
func (p *MaxPool2D) Init(rng *rand.Rand) {}

// forwardBlocks pools (sample, channel) blocks [b0, b1).
func (p *MaxPool2D) forwardBlocks(b0, b1 int) {
	h, w := p.lastH, p.lastW
	oh, ow := h/p.K, w/p.K
	span := oh * ow
	x, out, arg := p.curX, p.curOut, p.lastArg
	for blk := b0; blk < b1; blk++ {
		plane := x[blk*h*w:]
		oi := blk * span
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best, bi := math.Inf(-1), 0
				for ky := 0; ky < p.K; ky++ {
					for kx := 0; kx < p.K; kx++ {
						idx := (oy*p.K+ky)*w + ox*p.K + kx
						if plane[idx] > best {
							best, bi = plane[idx], idx
						}
					}
				}
				out[oi] = best
				arg[oi] = blk*h*w + bi
				oi++
			}
		}
	}
}

// backwardBlocks scatters gradients for blocks [b0, b1).
func (p *MaxPool2D) backwardBlocks(b0, b1 int) {
	span := (p.lastH / p.K) * (p.lastW / p.K)
	grad, dx, arg := p.curGrad, p.curDX, p.lastArg
	for oi := b0 * span; oi < b1*span; oi++ {
		dx[arg[oi]] += grad[oi]
	}
}

// Forward implements Layer. Each (sample, channel) block owns the disjoint
// output range [blk·oh·ow, (blk+1)·oh·ow), so the fan-out is bit-identical
// to the serial loop at any worker count.
func (p *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := h/p.K, w/p.K
	out := p.arena.tensor(p, slotOut, n, c, oh, ow)
	p.lastC, p.lastH, p.lastW = c, h, w
	p.lastArg = p.arena.intsBuf(p, slotArg, n*c*oh*ow)
	p.curX, p.curOut = x.Data, out.Data
	if p.fwdFn == nil {
		p.fwdFn = p.forwardBlocks
	}
	p.ctx.ParallelFor(n*c, oh*ow*p.K*p.K, p.fwdFn)
	return out
}

// Backward implements Layer: routes each output gradient to the argmax
// input. Block blk's argmax indices all land in input plane blk, so the
// scatter partitions disjointly by block.
func (p *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n := grad.Shape[0]
	c, h, w := p.lastC, p.lastH, p.lastW
	span := (h / p.K) * (w / p.K)
	dx := p.arena.tensor(p, slotDX, n, c, h, w)
	p.curGrad, p.curDX = grad.Data, dx.Data
	if p.bwdFn == nil {
		p.bwdFn = p.backwardBlocks
	}
	p.ctx.ParallelFor(n*c, 2*span, p.bwdFn)
	return dx
}

// Params implements Layer.
func (p *MaxPool2D) Params() []*Param { return nil }

// MACs implements Layer: one comparison per window element per output,
// counted as MAC-equivalents as in the paper's layer-wise model.
func (p *MaxPool2D) MACs(in []int) int64 {
	oh, ow := in[1]/p.K, in[2]/p.K
	return int64(in[0]) * int64(oh) * int64(ow) * int64(p.K) * int64(p.K)
}

// AvgPool2D applies K×K average pooling with stride K.
type AvgPool2D struct {
	K int

	binding
	lastC, lastH, lastW int

	// Current-dispatch operands + cached range closures (see ReLU).
	curX, curOut, curGrad, curDX []float64
	fwdFn, bwdFn                 func(b0, b1 int)
}

// NewAvgPool2D returns an average-pooling layer with window and stride k.
func NewAvgPool2D(k int) *AvgPool2D { return &AvgPool2D{K: k} }

// Kind implements Layer.
func (p *AvgPool2D) Kind() LayerKind { return KindAvgPool }

// OutShape implements Layer.
func (p *AvgPool2D) OutShape(in []int) []int {
	if len(in) != 3 {
		panic(fmt.Sprintf("nn: AvgPool expects (C,H,W), got %v", in))
	}
	oh, ow := in[1]/p.K, in[2]/p.K
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: AvgPool output collapsed for input %v window %d", in, p.K))
	}
	return []int{in[0], oh, ow}
}

// Init implements Layer (no parameters).
func (p *AvgPool2D) Init(rng *rand.Rand) {}

// forwardBlocks averages (sample, channel) blocks [b0, b1).
func (p *AvgPool2D) forwardBlocks(b0, b1 int) {
	h, w := p.lastH, p.lastW
	oh, ow := h/p.K, w/p.K
	span := oh * ow
	inv := 1.0 / float64(p.K*p.K)
	x, out := p.curX, p.curOut
	for blk := b0; blk < b1; blk++ {
		plane := x[blk*h*w:]
		oi := blk * span
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				s := 0.0
				for ky := 0; ky < p.K; ky++ {
					for kx := 0; kx < p.K; kx++ {
						s += plane[(oy*p.K+ky)*w+ox*p.K+kx]
					}
				}
				out[oi] = s * inv
				oi++
			}
		}
	}
}

// backwardBlocks spreads gradients for blocks [b0, b1).
func (p *AvgPool2D) backwardBlocks(b0, b1 int) {
	h, w := p.lastH, p.lastW
	oh, ow := h/p.K, w/p.K
	span := oh * ow
	inv := 1.0 / float64(p.K*p.K)
	grad, dx := p.curGrad, p.curDX
	for blk := b0; blk < b1; blk++ {
		plane := dx[blk*h*w:]
		oi := blk * span
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				g := grad[oi] * inv
				oi++
				for ky := 0; ky < p.K; ky++ {
					for kx := 0; kx < p.K; kx++ {
						plane[(oy*p.K+ky)*w+ox*p.K+kx] += g
					}
				}
			}
		}
	}
}

// Forward implements Layer; (sample, channel) blocks fan out disjointly.
func (p *AvgPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := h/p.K, w/p.K
	out := p.arena.tensor(p, slotOut, n, c, oh, ow)
	p.lastC, p.lastH, p.lastW = c, h, w
	p.curX, p.curOut = x.Data, out.Data
	if p.fwdFn == nil {
		p.fwdFn = p.forwardBlocks
	}
	p.ctx.ParallelFor(n*c, oh*ow*p.K*p.K, p.fwdFn)
	return out
}

// Backward implements Layer: spreads each output gradient uniformly; block
// blk only touches input plane blk, so the fan-out stays disjoint.
func (p *AvgPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n := grad.Shape[0]
	c, h, w := p.lastC, p.lastH, p.lastW
	oh, ow := h/p.K, w/p.K
	dx := p.arena.tensor(p, slotDX, n, c, h, w)
	p.curGrad, p.curDX = grad.Data, dx.Data
	if p.bwdFn == nil {
		p.bwdFn = p.backwardBlocks
	}
	p.ctx.ParallelFor(n*c, 2*oh*ow*p.K*p.K, p.bwdFn)
	return dx
}

// Params implements Layer.
func (p *AvgPool2D) Params() []*Param { return nil }

// MACs implements Layer: one add per window element per output.
func (p *AvgPool2D) MACs(in []int) int64 {
	oh, ow := in[1]/p.K, in[2]/p.K
	return int64(in[0]) * int64(oh) * int64(ow) * int64(p.K) * int64(p.K)
}
