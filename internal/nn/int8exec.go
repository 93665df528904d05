package nn

import (
	"fmt"

	"solarml/internal/compute"
)

// int8exec.go is the inference-side counterpart of the training Arena: an
// Int8Executor owns every buffer a forward pass touches — two int8
// activation ping-pong planes, the conv im2col and int32 accumulator
// scratch, and the float logits — all sized ONCE from the model's
// per-sample high-water marks: times the executor's batch capacity, except
// the conv scratch, which holds one sample (the conv kernel walks the batch
// through it sample by sample). The
// compute dispatchers (Int8Conv2D etc.) cache their range closures after
// the first call, so the steady-state Forward performs zero heap
// allocations at any batch size up to the capacity. One executor serves one
// goroutine; the underlying Int8Model is immutable and shared freely.

// inferArena is the preallocated buffer set of one executor. Unlike the
// training Arena it is not keyed or zero-filled per acquire: the op
// program's volume chain (validated by finalize) guarantees every op writes
// the exact region the next op reads, and the only buffer needing a clear
// (im2col padding) is cleared by the conv kernel itself.
type inferArena struct {
	actA, actB []int8    // activation ping-pong planes (maxBatch × maxAct)
	cols       []int8    // conv im2col scratch (one sample: maxCols)
	acc        []int32   // conv GEMM accumulators (one sample: maxAcc)
	logits     []float64 // classifier output (maxBatch × classes)
}

// Int8Executor runs a quantized model's op program over a fixed-capacity
// inference arena.
type Int8Executor struct {
	m        *Int8Model
	ctx      *compute.Context
	maxBatch int
	hi       int32 // activation clamp: 2^(abits−1)−1

	arena inferArena

	// Kernel dispatchers (each caches its fan-out closures internally).
	quant compute.Int8Quantize
	conv  compute.Int8Conv2D
	dw    compute.Int8DWConv2D
	dense compute.Int8Dense

	// Elementwise dispatch state + cached closures (see the ReLU layer for
	// the idiom: operands travel through fields, the closure is allocated
	// once).
	curOp          *int8Op
	curSrc, curDst []int8
	poolFn         func(b0, b1 int)
	avgFn          func(b0, b1 int)
	reluFn         func(i0, i1 int)
	normFn         func(b0, b1 int)
}

// NewExecutor builds an executor with capacity for maxBatch samples. A nil
// ctx selects serial execution; pass a parallel context to spread the GEMMs
// over workers.
func (m *Int8Model) NewExecutor(ctx *compute.Context, maxBatch int) *Int8Executor {
	if ctx == nil {
		ctx = serialContext
	}
	if maxBatch < 1 {
		maxBatch = 1
	}
	e := &Int8Executor{
		m:        m,
		ctx:      ctx,
		maxBatch: maxBatch,
		hi:       int32(1)<<uint(m.abits-1) - 1,
	}
	e.arena.actA = make([]int8, maxBatch*m.maxAct)
	e.arena.actB = make([]int8, maxBatch*m.maxAct)
	if m.maxCols > 0 {
		e.arena.cols = make([]int8, m.maxCols)
		e.arena.acc = make([]int32, m.maxAcc)
	}
	e.arena.logits = make([]float64, maxBatch*m.classes)
	return e
}

// MaxBatch returns the executor's batch capacity.
func (e *Int8Executor) MaxBatch() int { return e.maxBatch }

// Model returns the executor's (shared, immutable) model.
func (e *Int8Executor) Model() *Int8Model { return e.m }

// lowClamp returns the saturation floor for an op: zero with a fused ReLU,
// symmetric −hi otherwise.
func (e *Int8Executor) lowClamp(op *int8Op) int32 {
	if op.relu {
		return 0
	}
	return -e.hi
}

// Forward classifies n samples (x holds n·InVol floats, sample-major) and
// returns the float logits (n × classes), valid until the next Forward.
// Steady state allocates nothing.
func (e *Int8Executor) Forward(x []float64, n int) []float64 {
	if n < 1 || n > e.maxBatch {
		panic(fmt.Sprintf("nn: Int8Executor batch %d outside [1,%d]", n, e.maxBatch))
	}
	m := e.m
	inVol := m.InVol()
	if len(x) < n*inVol {
		panic(fmt.Sprintf("nn: Int8Executor input %d floats, need %d", len(x), n*inVol))
	}
	cur, nxt := e.arena.actA, e.arena.actB
	e.quant.Run(e.ctx, cur[:n*inVol], x[:n*inVol], m.inScale, e.hi)
	for i := 0; i < len(m.ops); i++ {
		op := &m.ops[i]
		out := op.out
		if op.pool > 0 {
			i++ // the folded max-pool: the conv writes its output
			out = m.ops[i].out
		}
		e.step(op, n, cur[:n*op.in], nxt[:n*out])
		if op.kind == opDenseLogits {
			return e.arena.logits[:n*m.classes]
		}
		cur, nxt = nxt, cur
	}
	panic("nn: int8 program did not end in a logits head") // finalize forbids this
}

// step runs one op over n samples, reading src and writing dst (the logits
// head writes the arena's logits instead; a conv with a folded max-pool
// writes the pooled output).
func (e *Int8Executor) step(op *int8Op, n int, src, dst []int8) {
	switch op.kind {
	case opConv:
		e.conv.RunMaxPool(e.ctx, dst, src, op.w, op.bias, op.mult, op.shift,
			e.arena.cols, e.arena.acc,
			n, op.inC, op.inH, op.inW, op.outC, op.k, op.stride, op.pad, max(op.pool, 1),
			e.lowClamp(op), e.hi)
	case opDWConv:
		e.dw.Run(e.ctx, dst, src, op.w, op.bias, op.mult, op.shift,
			n, op.inC, op.inH, op.inW, op.k, op.stride, op.pad,
			e.lowClamp(op), e.hi)
	case opDense:
		e.dense.Run(e.ctx, dst, src, op.pack, op.bias, op.mult, op.shift,
			n, e.lowClamp(op), e.hi)
	case opDenseLogits:
		e.dense.RunLogits(e.ctx, e.arena.logits[:n*e.m.classes], src, op.pack,
			op.biasF, op.deq, n)
	case opMaxPool:
		// Method values are taken inside the nil check only: binding
		// e.maxPoolBlocks at a call site would allocate the closure on
		// every Forward.
		e.curOp, e.curSrc, e.curDst = op, src, dst
		if e.poolFn == nil {
			e.poolFn = e.maxPoolBlocks
		}
		e.ctx.ParallelFor(n*op.inC, 2*op.outH*op.outW*op.k*op.k, e.poolFn)
	case opAvgPool:
		e.curOp, e.curSrc, e.curDst = op, src, dst
		if e.avgFn == nil {
			e.avgFn = e.avgPoolBlocks
		}
		e.ctx.ParallelFor(n*op.inC, 2*op.outH*op.outW*op.k*op.k, e.avgFn)
	case opReLU:
		e.curOp, e.curSrc, e.curDst = op, src, dst
		if e.reluFn == nil {
			e.reluFn = e.reluRange
		}
		e.ctx.ParallelFor(n*op.in, 1, e.reluFn)
	case opNorm:
		e.curOp, e.curSrc, e.curDst = op, src, dst
		if e.normFn == nil {
			e.normFn = e.normBlocks
		}
		e.ctx.ParallelFor(n*op.inC, 4*op.inH*op.inW, e.normFn)
	}
}

func (e *Int8Executor) maxPoolBlocks(b0, b1 int) {
	op := e.curOp
	h, w, k := op.inH, op.inW, op.k
	oh, ow := op.outH, op.outW
	for blk := b0; blk < b1; blk++ {
		src := e.curSrc[blk*h*w:]
		dst := e.curDst[blk*oh*ow:]
		if k == 2 {
			// The overwhelmingly common window: four compares, two rows.
			for oy := 0; oy < oh; oy++ {
				r0 := src[(oy*2)*w:]
				r1 := src[(oy*2+1)*w:]
				drow := dst[oy*ow : oy*ow+ow]
				for ox := 0; ox < ow; ox++ {
					best := r0[2*ox]
					if v := r0[2*ox+1]; v > best {
						best = v
					}
					if v := r1[2*ox]; v > best {
						best = v
					}
					if v := r1[2*ox+1]; v > best {
						best = v
					}
					drow[ox] = best
				}
			}
			continue
		}
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := int8(-128)
				for ky := 0; ky < k; ky++ {
					row := src[(oy*k+ky)*w+ox*k:]
					for kx := 0; kx < k; kx++ {
						if v := row[kx]; v > best {
							best = v
						}
					}
				}
				dst[oy*ow+ox] = best
			}
		}
	}
}

func (e *Int8Executor) avgPoolBlocks(b0, b1 int) {
	op := e.curOp
	h, w, k := op.inH, op.inW, op.k
	oh, ow := op.outH, op.outW
	mult, shift := op.mult[0], int(op.shift[0])
	lo := e.lowClamp(op)
	for blk := b0; blk < b1; blk++ {
		src := e.curSrc[blk*h*w:]
		dst := e.curDst[blk*oh*ow:]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var acc int32
				for ky := 0; ky < k; ky++ {
					row := src[(oy*k+ky)*w+ox*k:]
					for kx := 0; kx < k; kx++ {
						acc += int32(row[kx])
					}
				}
				// The 1/K² fold lives in the multiplier, so the sum
				// requantizes exactly like a GEMM accumulator.
				dst[oy*ow+ox] = compute.RequantizeRNE(acc, mult, shift, lo, e.hi)
			}
		}
	}
}

func (e *Int8Executor) reluRange(i0, i1 int) {
	src, dst := e.curSrc, e.curDst
	for i := i0; i < i1; i++ {
		v := src[i]
		if v < 0 {
			v = 0
		}
		dst[i] = v
	}
}

func (e *Int8Executor) normBlocks(b0, b1 int) {
	op := e.curOp
	plane := op.inH * op.inW
	c := op.inC
	lo := e.lowClamp(op)
	for blk := b0; blk < b1; blk++ {
		ch := blk % c
		mult, shift := op.mult[ch], int(op.shift[ch])
		bias := op.biasPost[ch]
		src := e.curSrc[blk*plane : (blk+1)*plane]
		dst := e.curDst[blk*plane : (blk+1)*plane]
		for i, v := range src {
			dst[i] = compute.RequantizeAffineRNE(int32(v), mult, shift, bias, lo, e.hi)
		}
	}
}
