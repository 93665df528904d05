package nn

import (
	"fmt"
	"math"
	"math/rand"

	"solarml/internal/tensor"
)

// convOutDim returns the output extent for one spatial dimension.
func convOutDim(in, k, stride, pad int) int {
	return (in+2*pad-k)/stride + 1
}

// Conv2D is a standard 2-D convolution with a square kernel, symmetric
// zero padding and shared stride. Input is NCHW.
//
// The forward/backward kernels run batched: one im2col lowering for the
// whole minibatch into an (InC·K·K, N·OH·OW) scratch matrix and one GEMM
// against the weights, instead of a column matrix allocated per sample.
// The column matrix and the three GEMM operands (forward output, gathered
// gradient, column gradient) live in the network's step arena under their
// own slots, like the layer's output and input gradient, so a steady-state
// training step allocates nothing. The column matrix is held from Forward
// to Backward; the arena zero-fills it on every acquire, which im2col's
// padding positions rely on.
type Conv2D struct {
	InC, OutC, K, Stride, Pad int
	W                         *Param // (OutC, InC*K*K)
	B                         *Param // (OutC)

	binding
	cols           []float64 // batched im2col scratch, (InC*K*K, N*OH*OW)
	lastH, lastW   int       // spatial input extent of the last Forward
	lastN          int       // batch size of the last Forward
	lastOH, lastOW int

	// Current-dispatch operands + cached range closures (see ReLU): one
	// closure per fan-out site, allocated on first use and reused for every
	// subsequent step.
	curIn, curOut, curOMat, curGrad, curGMat, curDCols, curDX []float64

	im2colFn, scatterFn, gatherFn, dbFn, col2imFn func(i0, i1 int)
}

// NewConv2D returns a convolution layer; call Init before training.
func NewConv2D(inC, outC, k, stride, pad int) *Conv2D {
	return &Conv2D{
		InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad,
		W: newParam(outC, inC*k*k),
		B: newParam(outC),
	}
}

// Kind implements Layer.
func (c *Conv2D) Kind() LayerKind { return KindConv }

// OutShape implements Layer.
func (c *Conv2D) OutShape(in []int) []int {
	if len(in) != 3 || in[0] != c.InC {
		panic(fmt.Sprintf("nn: Conv2D expects (C=%d,H,W) input, got %v", c.InC, in))
	}
	oh := convOutDim(in[1], c.K, c.Stride, c.Pad)
	ow := convOutDim(in[2], c.K, c.Stride, c.Pad)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: Conv2D output collapsed for input %v kernel %d stride %d", in, c.K, c.Stride))
	}
	return []int{c.OutC, oh, ow}
}

// Init applies He-uniform initialization.
func (c *Conv2D) Init(rng *rand.Rand) {
	fanIn := float64(c.InC * c.K * c.K)
	c.W.Value.RandFill(rng, math.Sqrt(6.0/fanIn))
	c.B.Value.Zero()
}

// im2colInto lowers one (C,H,W) sample into columns [colOff, colOff+oh·ow)
// of a pre-zeroed (C·K·K, stride) matrix. Only in-bounds input positions
// are written; padding entries rely on the destination being zero-filled.
func im2colInto(dst []float64, stride, colOff int, x []float64, cc, h, w, k, cstride, pad, oh, ow int) {
	for ch := 0; ch < cc; ch++ {
		chOff := ch * h * w
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				row := dst[((ch*k+ky)*k+kx)*stride+colOff:]
				for oy := 0; oy < oh; oy++ {
					iy := oy*cstride + ky - pad
					if iy < 0 || iy >= h {
						continue
					}
					for ox := 0; ox < ow; ox++ {
						ix := ox*cstride + kx - pad
						if ix < 0 || ix >= w {
							continue
						}
						row[oy*ow+ox] = x[chOff+iy*w+ix]
					}
				}
			}
		}
	}
}

// col2imFrom scatters columns [colOff, colOff+oh·ow) of a (C·K·K, stride)
// gradient matrix back onto one (C,H,W) sample.
func col2imFrom(src []float64, stride, colOff int, dst []float64, cc, h, w, k, cstride, pad, oh, ow int) {
	for ch := 0; ch < cc; ch++ {
		chOff := ch * h * w
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				row := src[((ch*k+ky)*k+kx)*stride+colOff:]
				for oy := 0; oy < oh; oy++ {
					iy := oy*cstride + ky - pad
					if iy < 0 || iy >= h {
						continue
					}
					for ox := 0; ox < ow; ox++ {
						ix := ox*cstride + kx - pad
						if ix < 0 || ix >= w {
							continue
						}
						dst[chOff+iy*w+ix] += row[oy*ow+ox]
					}
				}
			}
		}
	}
}

// im2colRange lowers samples [i0, i1) into their column blocks.
func (c *Conv2D) im2colRange(i0, i1 int) {
	h, w, oh, ow := c.lastH, c.lastW, c.lastOH, c.lastOW
	span := oh * ow
	width := c.lastN * span
	sampleIn := c.InC * h * w
	for i := i0; i < i1; i++ {
		im2colInto(c.cols, width, i*span, c.curIn[i*sampleIn:(i+1)*sampleIn],
			c.InC, h, w, c.K, c.Stride, c.Pad, oh, ow)
	}
}

// scatterRange copies samples [i0, i1) of the (OutC, N·OH·OW) GEMM output
// back to NCHW.
func (c *Conv2D) scatterRange(i0, i1 int) {
	span := c.lastOH * c.lastOW
	width := c.lastN * span
	for i := i0; i < i1; i++ {
		for oc := 0; oc < c.OutC; oc++ {
			copy(c.curOut[(i*c.OutC+oc)*span:(i*c.OutC+oc+1)*span],
				c.curOMat[oc*width+i*span:oc*width+(i+1)*span])
		}
	}
}

// gatherRange transposes samples [i0, i1) of the NCHW gradient into the
// (OutC, N·OH·OW) layout.
func (c *Conv2D) gatherRange(i0, i1 int) {
	span := c.lastOH * c.lastOW
	width := c.lastN * span
	for i := i0; i < i1; i++ {
		for oc := 0; oc < c.OutC; oc++ {
			copy(c.curGMat[oc*width+i*span:oc*width+(i+1)*span],
				c.curGrad[(i*c.OutC+oc)*span:(i*c.OutC+oc+1)*span])
		}
	}
}

// biasGradRange accumulates db for output channels [o0, o1), each row
// summed left to right.
func (c *Conv2D) biasGradRange(o0, o1 int) {
	width := c.lastN * c.lastOH * c.lastOW
	for oc := o0; oc < o1; oc++ {
		s := 0.0
		for _, v := range c.curGMat[oc*width : (oc+1)*width] {
			s += v
		}
		c.B.Grad.Data[oc] += s
	}
}

// col2imRange scatters samples [i0, i1) of the column gradient back onto dx.
func (c *Conv2D) col2imRange(i0, i1 int) {
	h, w, oh, ow := c.lastH, c.lastW, c.lastOH, c.lastOW
	span := oh * ow
	width := c.lastN * span
	sampleIn := c.InC * h * w
	for i := i0; i < i1; i++ {
		col2imFrom(c.curDCols, width, i*span, c.curDX[i*sampleIn:(i+1)*sampleIn],
			c.InC, h, w, c.K, c.Stride, c.Pad, oh, ow)
	}
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh := convOutDim(h, c.K, c.Stride, c.Pad)
	ow := convOutDim(w, c.K, c.Stride, c.Pad)
	rows := c.InC * c.K * c.K
	span := oh * ow
	width := n * span
	c.cols = c.arena.floats(c, slotCols, rows*width)
	c.lastH, c.lastW = h, w
	c.lastN, c.lastOH, c.lastOW = n, oh, ow
	if c.im2colFn == nil {
		c.im2colFn = c.im2colRange
		c.scatterFn = c.scatterRange
	}
	// Batched im2col: sample i owns the disjoint column block
	// [i·span, (i+1)·span), so the lowering parallelizes deterministically.
	c.curIn = x.Data
	c.ctx.For(n, 1, c.im2colFn)
	// One GEMM for the whole batch, bias fused as the row start value.
	oMat := c.arena.floats(c, slotOMat, c.OutC*width)
	c.ctx.MatMul(oMat, c.W.Value.Data, c.cols, c.B.Value.Data, c.OutC, rows, width)
	// Scatter (OutC, N·OH·OW) back to NCHW; each sample's rows are disjoint.
	out := c.arena.tensor(c, slotOut, n, c.OutC, oh, ow)
	c.curOMat, c.curOut = oMat, out.Data
	c.ctx.ParallelFor(n, c.OutC*span, c.scatterFn)
	return out
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	ensureGrad(c.W, c.B)
	n, oh, ow := grad.Shape[0], grad.Shape[2], grad.Shape[3]
	h, w := c.lastH, c.lastW
	rows := c.InC * c.K * c.K
	span := oh * ow
	width := n * span
	if c.gatherFn == nil {
		c.gatherFn = c.gatherRange
		c.dbFn = c.biasGradRange
		c.col2imFn = c.col2imRange
	}
	// Gather grad (N, OutC, OH, OW) into (OutC, N·OH·OW), matching the
	// column layout of the stored im2col scratch; disjoint per sample.
	gMat := c.arena.floats(c, slotGMat, c.OutC*width)
	c.curGrad, c.curGMat = grad.Data, gMat
	c.ctx.ParallelFor(n, c.OutC*span, c.gatherFn)
	// dW += g × colsᵀ, accumulated straight into the gradient tensor.
	c.ctx.MatMulTransB(c.W.Grad.Data, gMat, c.cols, nil, c.OutC, width, rows, true)
	// db += row sums of g. Each worker owns whole output channels, and sums
	// each row left to right, so the addition order matches serial exactly.
	c.ctx.ParallelFor(c.OutC, 2*width, c.dbFn)
	// dcols = Wᵀ × g, then scatter every sample's column block back.
	dcols := c.arena.floats(c, slotDCols, rows*width)
	c.ctx.MatMulTransA(dcols, c.W.Value.Data, gMat, c.OutC, rows, width, false)
	dx := c.arena.tensor(c, slotDX, n, c.InC, h, w)
	c.curDCols, c.curDX = dcols, dx.Data
	c.ctx.For(n, 1, c.col2imFn)
	return dx
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

// MACs implements Layer: OutC·OH·OW·InC·K² per sample.
func (c *Conv2D) MACs(in []int) int64 {
	oh := convOutDim(in[1], c.K, c.Stride, c.Pad)
	ow := convOutDim(in[2], c.K, c.Stride, c.Pad)
	return int64(c.OutC) * int64(oh) * int64(ow) * int64(c.InC) * int64(c.K) * int64(c.K)
}

// DepthwiseConv2D convolves each channel with its own K×K filter.
// Input is NCHW with C channels preserved.
//
// The direct kernel beats an im2col lowering here (each output element
// touches only K² inputs of one channel), so instead the (sample, channel)
// blocks fan out over the compute backend: every block writes a disjoint
// output region in Forward, and Backward partitions by channel so each
// worker owns its channel's weight/bias gradient accumulators — the
// per-location accumulation order matches the serial kernel exactly.
type DepthwiseConv2D struct {
	C, K, Stride, Pad int
	W                 *Param // (C, K*K)
	B                 *Param // (C)

	binding
	lastX *tensor.Tensor

	// Current-dispatch operands + cached range closures (see ReLU).
	curOut, curGrad, curDX []float64
	lastOH, lastOW         int
	fwdFn, bwdFn           func(i0, i1 int)
}

// NewDepthwiseConv2D returns a depthwise convolution layer.
func NewDepthwiseConv2D(c, k, stride, pad int) *DepthwiseConv2D {
	return &DepthwiseConv2D{C: c, K: k, Stride: stride, Pad: pad, W: newParam(c, k*k), B: newParam(c)}
}

// Kind implements Layer.
func (c *DepthwiseConv2D) Kind() LayerKind { return KindDWConv }

// OutShape implements Layer.
func (c *DepthwiseConv2D) OutShape(in []int) []int {
	if len(in) != 3 || in[0] != c.C {
		panic(fmt.Sprintf("nn: DWConv expects (C=%d,H,W) input, got %v", c.C, in))
	}
	oh := convOutDim(in[1], c.K, c.Stride, c.Pad)
	ow := convOutDim(in[2], c.K, c.Stride, c.Pad)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: DWConv output collapsed for input %v", in))
	}
	return []int{c.C, oh, ow}
}

// Init applies He-uniform initialization.
func (c *DepthwiseConv2D) Init(rng *rand.Rand) {
	c.W.Value.RandFill(rng, math.Sqrt(6.0/float64(c.K*c.K)))
	c.B.Value.Zero()
}

// forwardBlocks convolves (sample, channel) blocks [b0, b1).
func (c *DepthwiseConv2D) forwardBlocks(b0, b1 int) {
	x := c.lastX
	h, w := x.Shape[2], x.Shape[3]
	oh, ow := c.lastOH, c.lastOW
	for blk := b0; blk < b1; blk++ {
		i, ch := blk/c.C, blk%c.C
		src := x.Data[(i*c.C+ch)*h*w:]
		dst := c.curOut[(i*c.C+ch)*oh*ow:]
		wrow := c.W.Value.Data[ch*c.K*c.K:]
		b := c.B.Value.Data[ch]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				s := b
				for ky := 0; ky < c.K; ky++ {
					iy := oy*c.Stride + ky - c.Pad
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < c.K; kx++ {
						ix := ox*c.Stride + kx - c.Pad
						if ix < 0 || ix >= w {
							continue
						}
						s += wrow[ky*c.K+kx] * src[iy*w+ix]
					}
				}
				dst[oy*ow+ox] = s
			}
		}
	}
}

// backwardChannels accumulates gradients for channels [c0, c1).
func (c *DepthwiseConv2D) backwardChannels(c0, c1 int) {
	x := c.lastX
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := c.lastOH, c.lastOW
	for ch := c0; ch < c1; ch++ {
		wrow := c.W.Value.Data[ch*c.K*c.K:]
		dwrow := c.W.Grad.Data[ch*c.K*c.K:]
		for i := 0; i < n; i++ {
			src := x.Data[(i*c.C+ch)*h*w:]
			g := c.curGrad[(i*c.C+ch)*oh*ow:]
			dsrc := c.curDX[(i*c.C+ch)*h*w:]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					gv := g[oy*ow+ox]
					if gv == 0 {
						continue
					}
					c.B.Grad.Data[ch] += gv
					for ky := 0; ky < c.K; ky++ {
						iy := oy*c.Stride + ky - c.Pad
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < c.K; kx++ {
							ix := ox*c.Stride + kx - c.Pad
							if ix < 0 || ix >= w {
								continue
							}
							dwrow[ky*c.K+kx] += gv * src[iy*w+ix]
							dsrc[iy*w+ix] += gv * wrow[ky*c.K+kx]
						}
					}
				}
			}
		}
	}
}

// Forward implements Layer.
func (c *DepthwiseConv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh := convOutDim(h, c.K, c.Stride, c.Pad)
	ow := convOutDim(w, c.K, c.Stride, c.Pad)
	c.lastX = x
	c.lastOH, c.lastOW = oh, ow
	out := c.arena.tensor(c, slotOut, n, c.C, oh, ow)
	c.curOut = out.Data
	if c.fwdFn == nil {
		c.fwdFn = c.forwardBlocks
	}
	// Each (sample, channel) block writes a disjoint output slice.
	c.ctx.ParallelFor(n*c.C, 2*oh*ow*c.K*c.K, c.fwdFn)
	return out
}

// Backward implements Layer.
func (c *DepthwiseConv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	ensureGrad(c.W, c.B)
	x := c.lastX
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := grad.Shape[2], grad.Shape[3]
	dx := c.arena.tensor(c, slotDX, n, c.C, h, w)
	c.curGrad, c.curDX = grad.Data, dx.Data
	c.lastOH, c.lastOW = oh, ow
	if c.bwdFn == nil {
		c.bwdFn = c.backwardChannels
	}
	// Partition by channel: each worker owns its channels' weight and bias
	// gradient rows, and visits samples in ascending order, so every
	// accumulator sees the same addition sequence as the serial kernel.
	c.ctx.ParallelFor(c.C, 4*n*oh*ow*c.K*c.K, c.bwdFn)
	return dx
}

// Params implements Layer.
func (c *DepthwiseConv2D) Params() []*Param { return []*Param{c.W, c.B} }

// MACs implements Layer: C·OH·OW·K² per sample.
func (c *DepthwiseConv2D) MACs(in []int) int64 {
	oh := convOutDim(in[1], c.K, c.Stride, c.Pad)
	ow := convOutDim(in[2], c.K, c.Stride, c.Pad)
	return int64(c.C) * int64(oh) * int64(ow) * int64(c.K) * int64(c.K)
}
