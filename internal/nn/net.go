package nn

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"solarml/internal/compute"
	"solarml/internal/obs"
	"solarml/internal/obs/energy"
	"solarml/internal/tensor"
)

// Network is a sequential stack of layers ending in logits over NumClasses.
type Network struct {
	InShape []int // per-sample input shape
	Layers  []Layer

	ctx   *compute.Context
	arena Arena

	// qatSnap is the reused QAT shadow-weight snapshot (see trainStep).
	qatSnap [][]float64

	// loss and clip cache the dispatch closures for the loss head and the
	// gradient clipper, so steady-state steps allocate nothing (see ReLU).
	loss lossScratch
	clip gradClipper

	// evalShape is the reused (chunk, ...InShape) staging shape of Accuracy.
	evalShape []int
}

// serialContext is the compute context every network starts on: serial
// kernels, no telemetry. A Context is immutable, so all networks share it.
var serialContext = compute.NewContext(compute.Serial{}, nil)

// NewNetwork returns a network for the given per-sample input shape. Every
// layer is bound to the network's own step arena and to the serial compute
// context (see SetCompute).
func NewNetwork(inShape []int, layers ...Layer) *Network {
	s := make([]int, len(inShape))
	copy(s, inShape)
	n := &Network{InShape: s, Layers: layers, ctx: serialContext}
	bindLayers(layers, n.ctx, &n.arena)
	return n
}

// Init initializes all layer parameters from rng.
func (n *Network) Init(rng *rand.Rand) {
	for _, l := range n.Layers {
		l.Init(rng)
	}
}

// SetCompute installs ctx on every layer and on the network itself
// (softmax, cross-entropy, gradient clipping, and the SGD update run
// through it too). It governs both training and inference kernels; nil
// reinstalls the serial default.
func (n *Network) SetCompute(ctx *compute.Context) {
	if ctx == nil {
		ctx = serialContext
	}
	n.ctx = ctx
	bindLayers(n.Layers, ctx, &n.arena)
}

// Arena returns the network's step arena. Per-step output, gradient, mask,
// and scratch buffers are acquired from it and reused across minibatches,
// so the steady-state training step makes no heap allocations. Tensors
// returned by Forward/Backward are therefore valid only until the network's
// next Forward/Backward — callers that retain outputs across calls must
// Clone them.
func (n *Network) Arena() *Arena { return &n.arena }

// OutShape returns the per-sample output shape.
func (n *Network) OutShape() []int {
	s := n.InShape
	for _, l := range n.Layers {
		s = l.OutShape(s)
	}
	return s
}

// Forward runs the batched input through every layer.
func (n *Network) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range n.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Params returns all trainable parameters.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ParamCount returns the total number of trainable scalars.
func (n *Network) ParamCount() int64 {
	var c int64
	for _, p := range n.Params() {
		c += int64(p.Value.Len())
	}
	return c
}

// ZeroGrads clears all parameter gradients.
func (n *Network) ZeroGrads() {
	for _, p := range n.Params() {
		p.zeroGrad()
	}
}

// MACsByKind returns per-sample MAC counts grouped by layer kind, the
// feature vector of the paper's layer-wise inference energy model.
func (n *Network) MACsByKind() KindMACs {
	var out KindMACs
	s := n.InShape
	for _, l := range n.Layers {
		out.Add(l.Kind(), l.MACs(s))
		s = l.OutShape(s)
	}
	return out
}

// TotalMACs returns the per-sample MAC count summed over all layers,
// the single proxy used by the μNAS/HarvNet baseline energy model.
func (n *Network) TotalMACs() int64 { return n.MACsByKind().Total() }

// PeakActivation returns the largest per-sample activation element count
// across layer boundaries, a proxy for working RAM.
func (n *Network) PeakActivation() int64 {
	s := n.InShape
	peak := int64(shapeVolume(s))
	for _, l := range n.Layers {
		s = l.OutShape(s)
		if v := int64(shapeVolume(s)); v > peak {
			peak = v
		}
	}
	return peak
}

// MemoryBytes estimates MCU RAM: weights at weightBits plus the two largest
// consecutive activations at activationBits (double-buffered execution).
func (n *Network) MemoryBytes(weightBits, activationBits int) int64 {
	wb := n.ParamCount() * int64(weightBits) / 8
	// Two largest consecutive activation buffers.
	s := n.InShape
	prev := int64(shapeVolume(s))
	var peakPair int64 = prev
	for _, l := range n.Layers {
		s = l.OutShape(s)
		cur := int64(shapeVolume(s))
		if prev+cur > peakPair {
			peakPair = prev + cur
		}
		prev = cur
	}
	ab := peakPair * int64(activationBits) / 8
	return wb + ab
}

// Softmax converts logits (N, K) into probabilities row by row.
func Softmax(logits *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(logits.Shape[0], logits.Shape[1])
	var s lossScratch
	s.softmaxInto(serialContext, out, logits)
	return out
}

// CrossEntropy returns the mean negative log-likelihood of labels under the
// softmax of logits, together with the gradient with respect to the logits.
func CrossEntropy(logits *tensor.Tensor, labels []int) (loss float64, grad *tensor.Tensor) {
	n, k := logits.Shape[0], logits.Shape[1]
	probs := tensor.New(n, k)
	grad = tensor.New(n, k)
	var s lossScratch
	loss = s.crossEntropyInto(serialContext, logits, labels, probs, grad)
	return loss, grad
}

// lossScratch holds the loss head's dispatch operands and cached range
// closures (see ReLU); each network owns one so steady-state steps reuse
// the two closures instead of allocating them per minibatch.
type lossScratch struct {
	logits, probs, grad []float64
	labels              []int
	k                   int
	inv                 float64
	smFn, gradFn        func(i0, i1 int)
}

// softmaxRange computes the row-wise softmax for rows [i0, i1).
func (s *lossScratch) softmaxRange(i0, i1 int) {
	k := s.k
	for i := i0; i < i1; i++ {
		row := s.logits[i*k : (i+1)*k]
		m := math.Inf(-1)
		for _, v := range row {
			if v > m {
				m = v
			}
		}
		sum := 0.0
		d := s.probs[i*k : (i+1)*k]
		for j, v := range row {
			e := math.Exp(v - m)
			d[j] = e
			sum += e
		}
		for j := range d {
			d[j] /= sum
		}
	}
}

// gradRange fills the logits gradient for rows [i0, i1).
func (s *lossScratch) gradRange(i0, i1 int) {
	k := s.k
	for i := i0; i < i1; i++ {
		y := s.labels[i]
		for j := 0; j < k; j++ {
			g := s.probs[i*k+j]
			if j == y {
				g -= 1
			}
			s.grad[i*k+j] = g * s.inv
		}
	}
}

// softmaxInto writes the row-wise softmax of logits into dst (both (N, K)).
// Rows are element-disjoint, so the fan-out is bit-identical to the serial
// loop at any worker count.
func (s *lossScratch) softmaxInto(ctx *compute.Context, dst, logits *tensor.Tensor) {
	n, k := logits.Shape[0], logits.Shape[1]
	s.logits, s.probs, s.k = logits.Data, dst.Data, k
	if s.smFn == nil {
		s.smFn = s.softmaxRange
	}
	ctx.ParallelFor(n, 8*k, s.smFn)
}

// crossEntropyInto computes the mean softmax cross-entropy of logits
// against labels, using probs as softmax scratch and writing the logits
// gradient into grad (all (N, K)). The loss reduction stays serial — its
// addition order is part of the bit-for-bit contract — while the softmax
// and gradient rows fan out disjointly.
func (s *lossScratch) crossEntropyInto(ctx *compute.Context, logits *tensor.Tensor, labels []int, probs, grad *tensor.Tensor) float64 {
	n, k := logits.Shape[0], logits.Shape[1]
	if len(labels) != n {
		panic(fmt.Sprintf("nn: %d labels for batch of %d", len(labels), n))
	}
	s.softmaxInto(ctx, probs, logits)
	s.labels, s.grad, s.inv = labels, grad.Data, 1/float64(n)
	if s.gradFn == nil {
		s.gradFn = s.gradRange
	}
	ctx.ParallelFor(n, 4*k, s.gradFn)
	loss := 0.0
	for i, y := range labels {
		loss -= math.Log(math.Max(probs.Data[i*k+y], 1e-12))
	}
	return loss * s.inv
}

// SGD is a momentum optimizer with optional L2 weight decay.
type SGD struct {
	LR       float64
	Momentum float64
	Decay    float64

	// Step dispatch operands + cached range closure (see ReLU).
	v, g, mom []float64
	fn        func(i0, i1 int)
}

// stepRange updates elements [i0, i1) of the current parameter.
func (o *SGD) stepRange(i0, i1 int) {
	v, g, mom := o.v, o.g, o.mom
	for i := i0; i < i1; i++ {
		gi := g[i] + o.Decay*v[i]
		mom[i] = o.Momentum*mom[i] - o.LR*gi
		v[i] += mom[i]
	}
}

// StepCtx applies one update to every parameter with elementwise fan-out
// over ctx's backend, leaving gradients intact. Every index is read and
// written by exactly one worker, so the result is bit-identical to the
// serial loop at any worker count.
func (o *SGD) StepCtx(ctx *compute.Context, params []*Param) {
	if o.fn == nil {
		o.fn = o.stepRange
	}
	for _, p := range params {
		ensureGrad(p)
		if p.Momentum == nil {
			p.Momentum = tensor.New(p.Value.Shape...)
		}
		o.v, o.g, o.mom = p.Value.Data, p.Grad.Data, p.Momentum.Data
		ctx.ParallelFor(len(o.v), 6, o.fn)
	}
}

// TrainConfig bundles the knobs of Fit.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Momentum  float64
	Decay     float64
	// ClipNorm bounds the global L2 norm of the gradient per minibatch
	// (0 selects the default of 5). NAS trains candidates with widely
	// varying input sizes at one learning rate; clipping keeps the
	// large-input ones from diverging. Set negative to disable.
	ClipNorm float64
	// QATWeightBits, when positive, enables quantization-aware training:
	// each minibatch runs forward/backward with the weights snapped to a
	// symmetric grid of this many bits while the optimizer updates the
	// full-precision shadow weights (straight-through estimation). The
	// trained model then survives post-training quantization at the same
	// width with far less accuracy loss.
	QATWeightBits int
	Seed          int64
	// Verbose, when set, receives one line per epoch.
	Verbose func(epoch int, loss float64)
	// Obs, when set, receives one nn.epoch event per epoch (index, mean
	// loss, wall-clock seconds) and an nn.fit span wrapping the run.
	Obs *obs.Recorder
	// Energy, when set, books the run's on-device training energy under
	// the train account (and onto the nn.fit span): SampleEnergyJ joules
	// per sample per epoch, the linear per-step cost model on-device
	// personalization budgets against. Charged per epoch, outside the
	// allocation-free trainStep path.
	Energy *energy.Ledger
	// SampleEnergyJ is the joules one training sample costs per epoch
	// (forward + backward + update); zero books nothing.
	SampleEnergyJ float64
}

// gradClipper holds the clipper's dispatch operands and cached range
// closure (see ReLU); each network owns one.
type gradClipper struct {
	g     []float64
	scale float64
	fn    func(i0, i1 int)
}

// scaleRange scales gradient elements [i0, i1).
func (c *gradClipper) scaleRange(i0, i1 int) {
	g, scale := c.g, c.scale
	for i := i0; i < i1; i++ {
		g[i] *= scale
	}
}

// clip scales all gradients so their global L2 norm is at most limit.
// The norm reduction stays serial — its addition order is part of the
// bit-for-bit contract — while the scale pass fans out element-disjointly.
func (c *gradClipper) clip(ctx *compute.Context, params []*Param, limit float64) {
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad.Data {
			sq += g * g
		}
	}
	norm := math.Sqrt(sq)
	if norm <= limit || norm == 0 {
		return
	}
	c.scale = limit / norm
	if c.fn == nil {
		c.fn = c.scaleRange
	}
	for _, p := range params {
		c.g = p.Grad.Data
		ctx.ParallelFor(len(c.g), 1, c.fn)
	}
}

// trainStep runs one minibatch (bx, by) through forward, loss, backward,
// clipping, and the optimizer update, returning the batch loss. params is
// the cached n.Params() slice (Params allocates; callers hoist it out of the
// epoch loop). The step performs no steady-state heap allocations: loss
// scratch, every layer buffer, and the QAT shadow snapshot are all reused.
func (n *Network) trainStep(bx *tensor.Tensor, by []int, params []*Param, opt *SGD, cfg *TrainConfig) float64 {
	for _, p := range params {
		p.zeroGrad()
	}
	qat := cfg.QATWeightBits > 0
	if qat {
		// Straight-through estimator: compute with quantized weights,
		// update the full-precision shadows.
		n.qatSnap = snapshotInto(n.qatSnap, params)
		for _, p := range params {
			quantizeTensorSym(p.Value, cfg.QATWeightBits)
		}
	}
	logits := n.Forward(bx, true)
	probs := n.arena.tensor(n, slotProbs, logits.Shape...)
	grad := n.arena.tensor(n, slotGrad, logits.Shape...)
	loss := n.loss.crossEntropyInto(n.ctx, logits, by, probs, grad)
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad = n.Layers[i].Backward(grad)
	}
	if qat {
		for i, p := range params {
			copy(p.Value.Data, n.qatSnap[i])
		}
	}
	if cfg.ClipNorm > 0 {
		n.clip.clip(n.ctx, params, cfg.ClipNorm)
	}
	opt.StepCtx(n.ctx, params)
	return loss
}

// snapshotInto copies every parameter value into dst, reusing its backing
// arrays; it is SnapshotParams without the steady-state allocations.
func snapshotInto(dst [][]float64, params []*Param) [][]float64 {
	if cap(dst) < len(params) {
		dst = make([][]float64, len(params))
	}
	dst = dst[:len(params)]
	for i, p := range params {
		dst[i] = append(dst[i][:0], p.Value.Data...)
	}
	return dst
}

// Fit trains the network on (inputs, labels) with softmax cross-entropy.
// inputs is (N, ...InShape). It returns the final epoch's mean loss.
func (n *Network) Fit(inputs *tensor.Tensor, labels []int, cfg TrainConfig) float64 {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	if cfg.ClipNorm == 0 {
		cfg.ClipNorm = 5
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	opt := &SGD{LR: cfg.LR, Momentum: cfg.Momentum, Decay: cfg.Decay}
	params := n.Params()
	total := inputs.Shape[0]
	sample := len(inputs.Data) / total
	order := rng.Perm(total)
	bshape := append([]int{0}, n.InShape...)
	fit := cfg.Obs.StartSpan("nn.fit",
		obs.Int("samples", total), obs.Int("epochs", cfg.Epochs),
		obs.Int("batch_size", cfg.BatchSize), obs.F64("lr", cfg.LR))
	var lastLoss float64
	for ep := 0; ep < cfg.Epochs; ep++ {
		var epStart time.Time
		if cfg.Obs.Enabled() {
			epStart = time.Now()
		}
		rng.Shuffle(total, func(i, j int) { order[i], order[j] = order[j], order[i] })
		epochLoss, batches := 0.0, 0
		for start := 0; start < total; start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > total {
				end = total
			}
			bs := end - start
			bshape[0] = bs
			bx := n.arena.tensor(n, slotBatchX, bshape...)
			by := n.arena.intsBuf(n, slotBatchY, bs)
			for bi := 0; bi < bs; bi++ {
				src := order[start+bi]
				copy(bx.Data[bi*sample:(bi+1)*sample], inputs.Data[src*sample:(src+1)*sample])
				by[bi] = labels[src]
			}
			epochLoss += n.trainStep(bx, by, params, opt, &cfg)
			batches++
		}
		lastLoss = epochLoss / float64(batches)
		if cfg.Obs.Enabled() {
			fit.Event("nn.epoch", obs.Int("epoch", ep), obs.F64("loss", lastLoss),
				obs.F64("seconds", time.Since(epStart).Seconds()))
		}
		if cfg.Verbose != nil {
			cfg.Verbose(ep, lastLoss)
		}
		if cfg.Energy != nil && cfg.SampleEnergyJ > 0 {
			cfg.Energy.ChargeSpan(&fit, energy.AccountTrain, cfg.SampleEnergyJ*float64(total))
		}
	}
	fit.End(obs.F64("loss", lastLoss))
	return lastLoss
}

// Accuracy evaluates top-1 accuracy on (inputs, labels) in inference mode.
// Chunk staging reuses the arena's cached view header, so evaluation
// allocates nothing per chunk.
func (n *Network) Accuracy(inputs *tensor.Tensor, labels []int) float64 {
	total := inputs.Shape[0]
	sample := len(inputs.Data) / total
	correct := 0
	const chunk = 32
	bshape := append(append(n.evalShape[:0], 0), n.InShape...)
	n.evalShape = bshape
	for start := 0; start < total; start += chunk {
		end := start + chunk
		if end > total {
			end = total
		}
		bs := end - start
		bshape[0] = bs
		bx := n.arena.view(n, slotView, inputs.Data[start*sample:end*sample], bshape...)
		logits := n.Forward(bx, false)
		k := logits.Shape[1]
		for i := 0; i < bs; i++ {
			best, bi := math.Inf(-1), 0
			for j := 0; j < k; j++ {
				if v := logits.Data[i*k+j]; v > best {
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
