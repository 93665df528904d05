package nn

import (
	"fmt"
	"math"

	"solarml/internal/bytecodec"
	"solarml/internal/compute"
	"solarml/internal/tensor"
)

// int8.go is the one quantization path: ConvertInt8 folds a trained float
// network plus cmd/deploy's wbits/abits configuration into an Int8Model —
// a flat program of quantized ops whose weights are int8, whose
// accumulators are int32, and whose layer boundaries carry precomputed
// requantization parameters (31-bit fixed-point multiplier + shift, see
// compute.QuantizeMultiplier). The executor over this program lives in
// int8exec.go; the serialized form (cmd/deploy -qout → cmd/serve) is the
// int8 payload of the SOLARMDL container, and the MCU C header
// (export.go) is generated from the same program.
//
// Quantization scheme: symmetric, zero-point 0 throughout. Weights take one
// scale per output channel (row of the GEMM), activations one scale per
// layer boundary calibrated as maxAbs / (2^(abits−1)−1) over a
// representative batch, with the weights already snapped to their grid.
// Biases are int32 in the accumulator's scale s_in·s_w[oc]. BatchNorm
// folds to a per-channel integer affine clamp(rne(x·M_c) + qb_c) whose bias
// applies after the scale, so a dead channel (gamma 0) still lands exactly
// on its beta constant. The classifier head stays in float: logits[j] =
// acc·s_in·s_w[j] + b[j], which costs one multiply per class and spares the
// logits a destructive final rounding. ReLUs following a compute layer fuse
// into its epilogue as a zero lower clamp.

// int8OpKind enumerates the quantized executor's op set.
type int8OpKind int

const (
	opConv int8OpKind = iota
	opDWConv
	opDense
	opDenseLogits
	opMaxPool
	opAvgPool
	opReLU
	opNorm
	numInt8Ops
)

// int8Op is one step of the quantized program. Geometry is per sample;
// buffers carry the batch contiguously (sample-major, NCHW within).
type int8Op struct {
	kind int8OpKind
	relu bool // fused ReLU: requantize with a zero lower clamp

	inC, outC, k, stride, pad int
	inH, inW, outH, outW      int
	in, out                   int // per-sample volumes

	w     []int8  // quantized weights (GEMM row-major, see compute kernels)
	bias  []int32 // accumulator-scale bias (conv/dwconv/dense)
	mult  []int32 // requant multipliers: per channel, or len 1 broadcast
	shift []int32
	// biasPost is the post-scale affine bias of opNorm (output-scale units).
	biasPost []int32
	// deq/biasF are the float head of opDenseLogits: per-class
	// dequantization scale and float bias.
	deq, biasF []float64

	// Derived by finalize, never serialized:
	// pack is w in the dense kernels' SWAR layout (opDense, opDenseLogits);
	pack *compute.Int8DensePack
	// pool is the window of the max-pool op that follows this conv when
	// its pool folds into the conv's epilogue (0: none); the executor then
	// skips that op.
	pool int
}

// Int8Model is a lowered, immutable quantized network: safe for concurrent
// executors (each Int8Executor owns its scratch; the model is read-only).
type Int8Model struct {
	inShape []int
	classes int
	inScale float64 // input quantization scale (boundary 0)
	wbits   int
	abits   int
	arch    string // human-readable provenance (Arch.String())
	ops     []int8Op
	arenaMarks
}

// arenaMarks are a program's per-sample scratch high-water marks, computed
// by validate: the executor sizes its inference arena once from these.
type arenaMarks struct {
	maxAct  int // largest activation volume (incl. the input)
	maxAcc  int // largest conv accumulator volume
	maxCols int // largest conv im2col volume
}

// InShape returns the per-sample input shape.
func (m *Int8Model) InShape() []int { return append([]int(nil), m.inShape...) }

// InVol returns the per-sample input volume (floats per classify instance).
func (m *Int8Model) InVol() int { return shapeVolume(m.inShape) }

// Classes returns the number of output classes.
func (m *Int8Model) Classes() int { return m.classes }

// ArchString returns the source architecture description.
func (m *Int8Model) ArchString() string { return m.arch }

// Bits returns the weight and activation bit widths the model was lowered at.
func (m *Int8Model) Bits() (wbits, abits int) { return m.wbits, m.abits }

// nz substitutes 1 for a dead (zero) scale so folded divisions stay finite;
// a zero scale means the corresponding values are identically zero, so any
// finite substitute is exact.
func nz(s float64) float64 {
	if s == 0 {
		return 1
	}
	return s
}

// roundClampI32 rounds to nearest even and saturates into int32.
func roundClampI32(v float64) int32 {
	r := math.RoundToEven(v)
	if !(r > math.MinInt32) { // also catches NaN
		return math.MinInt32
	}
	if r > math.MaxInt32 {
		return math.MaxInt32
	}
	return int32(r)
}

// quantizeRows snaps data (rows × rowLen, row-major) to a symmetric
// per-row int8 grid: returns the quantized values and one scale per row,
// and writes the dequantized values back into data so calibration runs
// against exactly the weights the integer kernels will use. A zero scale
// marks a dead (all-zero) row.
func quantizeRows(data []float64, rows, rowLen int, levels int32) ([]int8, []float64) {
	q := make([]int8, rows*rowLen)
	scales := make([]float64, rows)
	lv := float64(levels)
	for r := 0; r < rows; r++ {
		row := data[r*rowLen : (r+1)*rowLen]
		var m float64
		for _, v := range row {
			if a := math.Abs(v); a > m {
				m = a
			}
		}
		if m == 0 {
			continue
		}
		s := m / lv
		scales[r] = s
		for i, v := range row {
			qv := math.RoundToEven(v / s)
			if qv > lv {
				qv = lv
			}
			if qv < -lv {
				qv = -lv
			}
			q[r*rowLen+i] = int8(qv)
			row[i] = qv * s
		}
	}
	return q, scales
}

// foldRequant builds the per-channel requant parameters mapping an
// accumulator in scale sIn·ws[c] to the sOut output grid, plus the int32
// bias lifted into the accumulator scale.
func foldRequant(sIn, sOut float64, ws, biasF []float64) (bias, mult, shift []int32) {
	n := len(ws)
	bias = make([]int32, n)
	mult = make([]int32, n)
	shift = make([]int32, n)
	for c := 0; c < n; c++ {
		w := nz(ws[c]) // dead row: acc is always 0, substitution keeps the bias alive
		m, s := compute.QuantizeMultiplier(sIn * w / sOut)
		mult[c], shift[c] = m, int32(s)
		if biasF != nil {
			bias[c] = roundClampI32(biasF[c] / (sIn * w))
		}
	}
	return bias, mult, shift
}

// isReLUAt reports whether layer li exists and is a ReLU (fusion probe).
func isReLUAt(layers []Layer, li int) bool {
	if li >= len(layers) {
		return false
	}
	_, ok := layers[li].(*ReLU)
	return ok
}

// ConvertInt8 lowers a trained float network to an Int8Model at the
// config's bit widths (both in [2,8]: the storage is int8). The network's
// float parameters are left untouched (snapshot/restore around the internal
// weight snapping), so the caller can still run the float model afterwards.
// calib has shape (N, ...InShape) and calibrates the activation grids.
func ConvertInt8(arch *Arch, net *Network, calib *tensor.Tensor, cfg PTQConfig) (*Int8Model, error) {
	if cfg.WeightBits < 2 || cfg.WeightBits > 8 {
		return nil, fmt.Errorf("nn: int8 lowering needs weight bits in [2,8], have %d", cfg.WeightBits)
	}
	if cfg.ActBits < 2 || cfg.ActBits > 8 {
		return nil, fmt.Errorf("nn: int8 lowering needs activation bits in [2,8], have %d", cfg.ActBits)
	}
	if calib == nil || len(calib.Shape) == 0 || calib.Shape[0] < 1 {
		return nil, fmt.Errorf("nn: int8 lowering needs a calibration batch")
	}
	levelsW := int32(1)<<uint(cfg.WeightBits-1) - 1
	levelsA := float64(int32(1)<<uint(cfg.ActBits-1) - 1)

	// Snap weights to their per-row grids (dequantized in place so
	// calibration sees the deployed weights), restoring the float model on
	// every exit path.
	snap := net.SnapshotParams()
	defer net.RestoreParams(snap)
	qw := make(map[int][]int8)
	wsc := make(map[int][]float64)
	for li, l := range net.Layers {
		switch t := l.(type) {
		case *Conv2D:
			qw[li], wsc[li] = quantizeRows(t.W.Value.Data, t.OutC, t.InC*t.K*t.K, levelsW)
		case *DepthwiseConv2D:
			qw[li], wsc[li] = quantizeRows(t.W.Value.Data, t.C, t.K*t.K, levelsW)
		case *Dense:
			qw[li], wsc[li] = quantizeRows(t.W.Value.Data, t.Out, t.In, levelsW)
		}
	}

	// Calibrate boundary maxAbs (input is boundary 0) in inference mode.
	maxs := make([]float64, len(net.Layers)+1)
	total := calib.Shape[0]
	sample := len(calib.Data) / total
	const chunk = 32
	for start := 0; start < total; start += chunk {
		end := start + chunk
		if end > total {
			end = total
		}
		bshape := append([]int{end - start}, net.InShape...)
		x := tensor.FromSlice(calib.Data[start*sample:end*sample], bshape...)
		if m := x.MaxAbs(); m > maxs[0] {
			maxs[0] = m
		}
		for i, l := range net.Layers {
			x = l.Forward(x, false)
			if m := x.MaxAbs(); m > maxs[i+1] {
				maxs[i+1] = m
			}
		}
	}
	scales := make([]float64, len(maxs))
	for i, m := range maxs {
		scales[i] = m / levelsA
	}

	m := &Int8Model{
		inShape: append([]int(nil), net.InShape...),
		classes: arch.Classes,
		inScale: scales[0],
		wbits:   cfg.WeightBits,
		abits:   cfg.ActBits,
		arch:    arch.String(),
	}

	// Walk the layers, emitting ops. sCur is the effective scale of the
	// current activation grid (nz-substituted at every requant boundary so
	// it matches the multipliers actually baked in).
	layers := net.Layers
	shape := append([]int(nil), net.InShape...)
	sCur := nz(scales[0])
	for li := 0; li < len(layers); {
		l := layers[li]
		outShape := l.OutShape(shape)
		inVol, outVol := shapeVolume(shape), shapeVolume(outShape)
		op := int8Op{in: inVol, out: outVol}
		consumed := 1
		// ReLU fusion: a ReLU directly after a requantizing compute layer
		// becomes its epilogue's zero lower clamp.
		fusable := false
		switch l.(type) {
		case *Conv2D, *DepthwiseConv2D, *BatchNorm:
			fusable = true
		case *Dense:
			fusable = li < len(layers)-1
		}
		if fusable && isReLUAt(layers, li+1) {
			op.relu = true
			consumed = 2
		}

		switch t := l.(type) {
		case *Conv2D:
			sOut := nz(scales[li+consumed])
			op.kind = opConv
			op.inC, op.outC, op.k, op.stride, op.pad = t.InC, t.OutC, t.K, t.Stride, t.Pad
			op.inH, op.inW = shape[1], shape[2]
			op.outH, op.outW = outShape[1], outShape[2]
			op.w = qw[li]
			op.bias, op.mult, op.shift = foldRequant(sCur, sOut, wsc[li], t.B.Value.Data)
			sCur = sOut
		case *DepthwiseConv2D:
			sOut := nz(scales[li+consumed])
			op.kind = opDWConv
			op.inC, op.outC, op.k, op.stride, op.pad = t.C, t.C, t.K, t.Stride, t.Pad
			op.inH, op.inW = shape[1], shape[2]
			op.outH, op.outW = outShape[1], outShape[2]
			op.w = qw[li]
			op.bias, op.mult, op.shift = foldRequant(sCur, sOut, wsc[li], t.B.Value.Data)
			sCur = sOut
		case *Dense:
			op.inC, op.outC = t.In, t.Out
			op.w = qw[li]
			if li == len(layers)-1 {
				// Classifier head: float logits, exact for dead rows
				// (deq 0 leaves the bias).
				op.kind = opDenseLogits
				op.deq = make([]float64, t.Out)
				for j, ws := range wsc[li] {
					op.deq[j] = sCur * ws
				}
				op.biasF = append([]float64(nil), t.B.Value.Data...)
			} else {
				sOut := nz(scales[li+consumed])
				op.kind = opDense
				op.bias, op.mult, op.shift = foldRequant(sCur, sOut, wsc[li], t.B.Value.Data)
				sCur = sOut
			}
		case *MaxPool2D:
			// Max commutes with the monotone quantizer: keep the input grid
			// and skip the requant entirely.
			op.kind = opMaxPool
			op.inC, op.outC, op.k = shape[0], shape[0], t.K
			op.inH, op.inW = shape[1], shape[2]
			op.outH, op.outW = outShape[1], outShape[2]
		case *AvgPool2D:
			sOut := nz(scales[li+consumed])
			op.kind = opAvgPool
			op.inC, op.outC, op.k = shape[0], shape[0], t.K
			op.inH, op.inW = shape[1], shape[2]
			op.outH, op.outW = outShape[1], outShape[2]
			mu, sh := compute.QuantizeMultiplier(sCur / (float64(t.K*t.K) * sOut))
			op.mult, op.shift = []int32{mu}, []int32{int32(sh)}
			sCur = sOut
		case *BatchNorm:
			// Integer affine with a post-scale bias: out = clamp(rne(x·M_c)
			// + qb_c), M_c signed (gamma may be negative).
			sOut := nz(scales[li+consumed])
			op.kind = opNorm
			op.inC, op.outC = t.C, t.C
			op.inH, op.inW = shape[1], shape[2]
			op.outH, op.outW = shape[1], shape[2]
			op.mult = make([]int32, t.C)
			op.shift = make([]int32, t.C)
			op.biasPost = make([]int32, t.C)
			for c := 0; c < t.C; c++ {
				a := t.Gamma.Value.Data[c] / math.Sqrt(t.RunVar[c]+t.Eps)
				b := t.Beta.Value.Data[c] - t.RunMean[c]*a
				mu, sh := compute.QuantizeMultiplierSigned(a * sCur / sOut)
				op.mult[c], op.shift[c] = mu, int32(sh)
				op.biasPost[c] = roundClampI32(b / sOut)
			}
			sCur = sOut
		case *ReLU:
			op.kind = opReLU // standalone (not fused): same grid, clamp at 0
		case *Flatten:
			// A memory no-op at inference: no op emitted.
			shape = outShape
			li += consumed
			continue
		default:
			return nil, fmt.Errorf("nn: int8 lowering: unsupported layer %T", l)
		}
		if op.relu {
			// The fused ReLU is shape-preserving; out stays outVol.
			outShape = layers[li+1].OutShape(outShape)
		}
		m.ops = append(m.ops, op)
		shape = outShape
		li += consumed
	}
	if err := m.finalize(); err != nil {
		return nil, err
	}
	return m, nil
}

// finalize validates the op program, records its arena marks, and derives
// the executor's view of it: each dense op's weights packed once for the
// SWAR kernel, and each conv→max-pool pair whose pool can fold into the
// conv's epilogue. It runs once per model, after conversion and after
// decode, so validate doubles as the screening pass for untrusted model
// files.
func (m *Int8Model) finalize() error {
	if err := m.validate(&m.arenaMarks); err != nil {
		return err
	}
	for i := range m.ops {
		op := &m.ops[i]
		switch op.kind {
		case opDense, opDenseLogits:
			op.pack = compute.PackInt8Dense(op.w, op.inC, op.outC)
		case opConv:
			if next := i + 1; next < len(m.ops) && m.ops[next].kind == opMaxPool && monotone(op.mult) {
				op.pool = m.ops[next].k
			}
		}
	}
	return nil
}

// monotone reports whether every requant multiplier is non-negative, which
// makes the requantizer order-preserving: the max of requantized values is
// then the requantized max, so a max-pool may run on the accumulators.
func monotone(mult []int32) bool {
	for _, m := range mult {
		if m < 0 {
			return false
		}
	}
	return true
}

// validate checks the op program (geometry chain, slice lengths, requant
// ranges) and computes its per-sample arena high-water marks into marks;
// it does not modify the model.
func (m *Int8Model) validate(marks *arenaMarks) error {
	if len(m.inShape) == 0 || len(m.inShape) > 8 {
		return fmt.Errorf("nn: int8 model: implausible input rank %d", len(m.inShape))
	}
	vol := 1
	for _, d := range m.inShape {
		if d < 1 || d > 1<<16 {
			return fmt.Errorf("nn: int8 model: implausible input dim %d", d)
		}
		vol *= d
		if vol > 1<<24 {
			return fmt.Errorf("nn: int8 model: implausible input volume")
		}
	}
	if m.classes < 2 || m.classes > 1<<16 {
		return fmt.Errorf("nn: int8 model: implausible class count %d", m.classes)
	}
	if m.wbits < 2 || m.wbits > 8 || m.abits < 2 || m.abits > 8 {
		return fmt.Errorf("nn: int8 model: bit widths (%d,%d) outside [2,8]", m.wbits, m.abits)
	}
	if len(m.ops) == 0 || len(m.ops) > 1024 {
		return fmt.Errorf("nn: int8 model: implausible op count %d", len(m.ops))
	}
	if !(m.inScale >= 0) || math.IsInf(m.inScale, 0) {
		return fmt.Errorf("nn: int8 model: invalid input scale %v", m.inScale)
	}
	marks.maxAct, marks.maxAcc, marks.maxCols = vol, 0, 0
	cur := vol
	checkRequant := func(op *int8Op, wantLen int) error {
		if len(op.mult) != wantLen && len(op.mult) != 1 {
			return fmt.Errorf("nn: int8 model: %d requant multipliers, want %d or 1", len(op.mult), wantLen)
		}
		if len(op.shift) != len(op.mult) {
			return fmt.Errorf("nn: int8 model: mult/shift length mismatch")
		}
		for _, s := range op.shift {
			if s < -31 || s > 62 {
				return fmt.Errorf("nn: int8 model: requant shift %d outside [-31,62]", s)
			}
		}
		return nil
	}
	for i := range m.ops {
		op := &m.ops[i]
		if op.kind < 0 || op.kind >= numInt8Ops {
			return fmt.Errorf("nn: int8 model: op %d: unknown kind %d", i, op.kind)
		}
		if op.in != cur {
			return fmt.Errorf("nn: int8 model: op %d: input volume %d, chain carries %d", i, op.in, cur)
		}
		for _, d := range []int{op.inC, op.outC, op.k, op.stride, op.inH, op.inW, op.outH, op.outW} {
			if d < 0 || d > 1<<16 {
				return fmt.Errorf("nn: int8 model: op %d: implausible geometry %d", i, d)
			}
		}
		if op.out < 1 || op.out > 1<<24 || op.in < 1 {
			return fmt.Errorf("nn: int8 model: op %d: implausible volume", i)
		}
		switch op.kind {
		case opConv:
			if op.in != op.inC*op.inH*op.inW || op.out != op.outC*op.outH*op.outW {
				return fmt.Errorf("nn: int8 model: op %d: conv geometry/volume mismatch", i)
			}
			if op.k < 1 || op.stride < 1 || op.pad < 0 ||
				op.outH != convOutDim(op.inH, op.k, op.stride, op.pad) ||
				op.outW != convOutDim(op.inW, op.k, op.stride, op.pad) {
				return fmt.Errorf("nn: int8 model: op %d: bad conv spatial geometry", i)
			}
			if len(op.w) != op.outC*op.inC*op.k*op.k || len(op.bias) != op.outC {
				return fmt.Errorf("nn: int8 model: op %d: conv weight/bias length mismatch", i)
			}
			if err := checkRequant(op, op.outC); err != nil {
				return err
			}
			cols := op.inC * op.k * op.k * op.outH * op.outW
			if cols > marks.maxCols {
				marks.maxCols = cols
			}
			if op.out > marks.maxAcc {
				marks.maxAcc = op.out
			}
		case opDWConv:
			if op.inC != op.outC || op.in != op.inC*op.inH*op.inW || op.out != op.outC*op.outH*op.outW {
				return fmt.Errorf("nn: int8 model: op %d: dwconv geometry/volume mismatch", i)
			}
			if op.k < 1 || op.stride < 1 || op.pad < 0 ||
				op.outH != convOutDim(op.inH, op.k, op.stride, op.pad) ||
				op.outW != convOutDim(op.inW, op.k, op.stride, op.pad) {
				return fmt.Errorf("nn: int8 model: op %d: bad dwconv spatial geometry", i)
			}
			if len(op.w) != op.inC*op.k*op.k || len(op.bias) != op.inC {
				return fmt.Errorf("nn: int8 model: op %d: dwconv weight/bias length mismatch", i)
			}
			if err := checkRequant(op, op.inC); err != nil {
				return err
			}
		case opDense:
			if op.in != op.inC || op.out != op.outC || len(op.w) != op.outC*op.inC || len(op.bias) != op.outC {
				return fmt.Errorf("nn: int8 model: op %d: dense geometry mismatch", i)
			}
			if err := checkRequant(op, op.outC); err != nil {
				return err
			}
		case opDenseLogits:
			if op.in != op.inC || op.out != op.outC || op.outC != m.classes ||
				len(op.w) != op.outC*op.inC || len(op.deq) != op.outC || len(op.biasF) != op.outC {
				return fmt.Errorf("nn: int8 model: op %d: logits head geometry mismatch", i)
			}
			if i != len(m.ops)-1 {
				return fmt.Errorf("nn: int8 model: op %d: logits head before the end", i)
			}
		case opMaxPool:
			if op.inC != op.outC || op.k < 1 ||
				op.outH != op.inH/op.k || op.outW != op.inW/op.k ||
				op.in != op.inC*op.inH*op.inW || op.out != op.outC*op.outH*op.outW {
				return fmt.Errorf("nn: int8 model: op %d: maxpool geometry mismatch", i)
			}
		case opAvgPool:
			if op.inC != op.outC || op.k < 1 ||
				op.outH != op.inH/op.k || op.outW != op.inW/op.k ||
				op.in != op.inC*op.inH*op.inW || op.out != op.outC*op.outH*op.outW {
				return fmt.Errorf("nn: int8 model: op %d: avgpool geometry mismatch", i)
			}
			if err := checkRequant(op, 1); err != nil {
				return err
			}
		case opReLU:
			if op.in != op.out {
				return fmt.Errorf("nn: int8 model: op %d: relu must preserve volume", i)
			}
		case opNorm:
			if op.inC != op.outC || op.in != op.out ||
				len(op.biasPost) != op.inC {
				return fmt.Errorf("nn: int8 model: op %d: norm geometry mismatch", i)
			}
			if op.inH*op.inW < 1 || op.in != op.inC*op.inH*op.inW {
				return fmt.Errorf("nn: int8 model: op %d: norm plane mismatch", i)
			}
			if err := checkRequant(op, op.inC); err != nil {
				return err
			}
		}
		if op.in > marks.maxAct {
			marks.maxAct = op.in
		}
		if op.out > marks.maxAct {
			marks.maxAct = op.out
		}
		cur = op.out
	}
	last := &m.ops[len(m.ops)-1]
	if last.kind != opDenseLogits {
		return fmt.Errorf("nn: int8 model: program must end in a logits head")
	}
	return nil
}

// WeightBytes returns the serialized int8 weight storage.
func (m *Int8Model) WeightBytes() int64 {
	var n int64
	for i := range m.ops {
		n += int64(len(m.ops[i].w))
	}
	return n
}

// Accuracy evaluates quantized top-1 accuracy through a temporary executor.
func (m *Int8Model) Accuracy(ctx *compute.Context, inputs *tensor.Tensor, labels []int) float64 {
	total := inputs.Shape[0]
	sample := len(inputs.Data) / total
	const chunk = 32
	ex := m.NewExecutor(ctx, chunk)
	correct := 0
	for start := 0; start < total; start += chunk {
		end := start + chunk
		if end > total {
			end = total
		}
		bs := end - start
		logits := ex.Forward(inputs.Data[start*sample:end*sample], bs)
		k := m.classes
		for i := 0; i < bs; i++ {
			best, bi := math.Inf(-1), 0
			for j := 0; j < k; j++ {
				if v := logits[i*k+j]; v > best {
					best, bi = v, j
				}
			}
			if bi == labels[start+i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(total)
}

// ---- codec ----------------------------------------------------------------

// int8ModelVersion is the int8 payload layout version inside the SOLARMDL
// container (the container carries its own envelope version).
const int8ModelVersion = 1

func appendI32s(b []byte, v []int32) []byte {
	b = bytecodec.AppendUvarint(b, uint64(len(v)))
	for _, x := range v {
		b = bytecodec.AppendVarint(b, int64(x))
	}
	return b
}

func appendF64s(b []byte, v []float64) []byte {
	b = bytecodec.AppendUvarint(b, uint64(len(v)))
	for _, x := range v {
		b = bytecodec.AppendF64(b, x)
	}
	return b
}

func appendI8s(b []byte, v []int8) []byte {
	raw := make([]byte, len(v))
	for i, x := range v {
		raw[i] = byte(x)
	}
	return bytecodec.AppendBytes(b, raw)
}

// readI32s and readF64s size each list from a count the reader has checked
// against the bytes left: a checksum anyone can recompute does not make the
// count trustworthy.
func readI32s(r *bytecodec.Reader) []int32 {
	out := make([]int32, r.Count(1)) // a varint takes at least one byte
	for i := range out {
		out[i] = int32(r.Varint())
	}
	if r.Err() != nil {
		return nil
	}
	return out
}

func readF64s(r *bytecodec.Reader) []float64 {
	out := make([]float64, r.Count(8))
	for i := range out {
		out[i] = r.F64()
	}
	if r.Err() != nil {
		return nil
	}
	return out
}

func readI8s(r *bytecodec.Reader) []int8 {
	raw := r.Bytes()
	if r.Err() != nil {
		return nil
	}
	out := make([]int8, len(raw))
	for i, x := range raw {
		out[i] = int8(x)
	}
	return out
}

// appendInt8Model serializes the model (bytecodec varint layout; the
// container adds magic/version/CRC around it).
func appendInt8Model(b []byte, m *Int8Model) ([]byte, error) {
	var marks arenaMarks
	if err := m.validate(&marks); err != nil {
		return nil, fmt.Errorf("nn: refusing to serialize invalid int8 model: %w", err)
	}
	b = bytecodec.AppendUvarint(b, int8ModelVersion)
	b = bytecodec.AppendUvarint(b, uint64(len(m.inShape)))
	for _, d := range m.inShape {
		b = bytecodec.AppendUvarint(b, uint64(d))
	}
	b = bytecodec.AppendUvarint(b, uint64(m.classes))
	b = bytecodec.AppendF64(b, m.inScale)
	b = bytecodec.AppendUvarint(b, uint64(m.wbits))
	b = bytecodec.AppendUvarint(b, uint64(m.abits))
	b = bytecodec.AppendString(b, m.arch)
	b = bytecodec.AppendUvarint(b, uint64(len(m.ops)))
	for i := range m.ops {
		op := &m.ops[i]
		b = bytecodec.AppendUvarint(b, uint64(op.kind))
		relu := uint64(0)
		if op.relu {
			relu = 1
		}
		b = bytecodec.AppendUvarint(b, relu)
		for _, d := range []int{op.inC, op.outC, op.k, op.stride, op.pad, op.inH, op.inW, op.outH, op.outW, op.in, op.out} {
			b = bytecodec.AppendUvarint(b, uint64(d))
		}
		b = appendI8s(b, op.w)
		b = appendI32s(b, op.bias)
		b = appendI32s(b, op.mult)
		b = appendI32s(b, op.shift)
		b = appendI32s(b, op.biasPost)
		b = appendF64s(b, op.deq)
		b = appendF64s(b, op.biasF)
	}
	return b, nil
}

// readInt8Model decodes and validates an int8 model payload.
func readInt8Model(payload []byte) (*Int8Model, error) {
	r := bytecodec.NewReader(payload)
	ver := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("nn: int8 model header: %w", err)
	}
	if ver != int8ModelVersion {
		return nil, fmt.Errorf("nn: int8 model payload version %d; this build reads version %d", ver, int8ModelVersion)
	}
	m := &Int8Model{}
	rank := r.Uvarint()
	if rank > 8 {
		return nil, fmt.Errorf("nn: int8 model: implausible input rank %d", rank)
	}
	for i := uint64(0); i < rank; i++ {
		m.inShape = append(m.inShape, int(r.Uvarint()))
	}
	m.classes = int(r.Uvarint())
	m.inScale = r.F64()
	m.wbits = int(r.Uvarint())
	m.abits = int(r.Uvarint())
	m.arch = r.String()
	nOps := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("nn: int8 model header: %w", err)
	}
	if nOps > 1024 {
		return nil, fmt.Errorf("nn: int8 model: implausible op count %d", nOps)
	}
	for i := uint64(0); i < nOps; i++ {
		var op int8Op
		op.kind = int8OpKind(r.Uvarint())
		op.relu = r.Uvarint() != 0
		geo := []*int{&op.inC, &op.outC, &op.k, &op.stride, &op.pad, &op.inH, &op.inW, &op.outH, &op.outW, &op.in, &op.out}
		for _, g := range geo {
			v := r.Uvarint()
			if v > 1<<24 {
				return nil, fmt.Errorf("nn: int8 model: op %d: implausible geometry %d", i, v)
			}
			*g = int(v)
		}
		op.w = readI8s(r)
		op.bias = readI32s(r)
		op.mult = readI32s(r)
		op.shift = readI32s(r)
		op.biasPost = readI32s(r)
		op.deq = readF64s(r)
		op.biasF = readF64s(r)
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("nn: int8 model op %d: %w", i, err)
		}
		m.ops = append(m.ops, op)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("nn: int8 model: %d trailing bytes", r.Len())
	}
	if err := m.finalize(); err != nil {
		return nil, err
	}
	return m, nil
}
