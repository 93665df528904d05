package nn

import (
	"fmt"
	"math"
	"math/rand"

	"solarml/internal/compute"
	"solarml/internal/obs"
	"solarml/internal/tensor"
)

// MultiExitNetwork is an early-exit network in the style of HarvNet [5]: a
// backbone split into stages, with a classifier head after every stage.
// At inference time a sample leaves through the first exit whose softmax
// confidence clears a threshold, or through the deepest exit the remaining
// energy can afford — the mechanism HarvNet uses to align accuracy with
// the harvested energy budget.
type MultiExitNetwork struct {
	InShape []int
	Classes int
	// Stages are the backbone segments; Exits[i] classifies the output of
	// stage i (flattened).
	Stages [][]Layer
	Exits  []*Dense

	ctx   *compute.Context
	arena Arena

	// loss and clip cache the loss-head and clipper dispatch closures so
	// steady-state steps allocate nothing (see Network).
	loss lossScratch
	clip gradClipper

	stageOut  []([]int)        // per-stage output shape (per sample)
	headGrads []*tensor.Tensor // per-exit head input gradients of a step
	stageOuts []*tensor.Tensor // forwardStages' outputs, reused every pass
}

// NewMultiExit splits arch.Body after the given body indices (each index
// is the last layer of a stage; the remainder forms the final stage) and
// attaches a classifier head to every stage. The architecture must pass
// Analyze. Like NewNetwork, it binds every backbone layer and exit head to
// the network's own step arena and to the serial compute context.
func NewMultiExit(arch *Arch, exitAfter []int) (*MultiExitNetwork, error) {
	if _, err := arch.Analyze(); err != nil {
		return nil, err
	}
	for i := 1; i < len(exitAfter); i++ {
		if exitAfter[i] <= exitAfter[i-1] {
			return nil, fmt.Errorf("nn: exit indices must be strictly increasing")
		}
	}
	if len(exitAfter) > 0 && (exitAfter[0] < 0 || exitAfter[len(exitAfter)-1] >= len(arch.Body)-1) {
		return nil, fmt.Errorf("nn: exit indices must fall inside the body")
	}
	m := &MultiExitNetwork{
		InShape: append([]int(nil), arch.Input...),
		Classes: arch.Classes,
		ctx:     serialContext,
	}
	shape := append([]int(nil), arch.Input...)
	start := 0
	bounds := append(append([]int(nil), exitAfter...), len(arch.Body)-1)
	for _, end := range bounds {
		var stage []Layer
		for bi := start; bi <= end; bi++ {
			l := arch.Body[bi].materialize(shape)
			stage = append(stage, l)
			shape = l.OutShape(shape)
		}
		m.Stages = append(m.Stages, stage)
		m.stageOut = append(m.stageOut, append([]int(nil), shape...))
		m.Exits = append(m.Exits, NewDense(shapeVolume(shape), arch.Classes))
		start = end + 1
	}
	m.bind()
	return m, nil
}

// Init initializes all backbone and exit parameters from rng.
func (m *MultiExitNetwork) Init(rng *rand.Rand) {
	for _, stage := range m.Stages {
		for _, l := range stage {
			l.Init(rng)
		}
	}
	for _, e := range m.Exits {
		e.Init(rng)
	}
}

// SetCompute installs ctx on the network, every backbone layer, and every
// exit head (nil reinstalls the serial default).
func (m *MultiExitNetwork) SetCompute(ctx *compute.Context) {
	if ctx == nil {
		ctx = serialContext
	}
	m.ctx = ctx
	m.bind()
}

// bind binds every backbone layer and exit head to m's context and arena.
func (m *MultiExitNetwork) bind() {
	for _, stage := range m.Stages {
		bindLayers(stage, m.ctx, &m.arena)
	}
	for _, e := range m.Exits {
		e.bind(m.ctx, &m.arena)
	}
}

// Params returns every trainable parameter (backbone plus exits).
func (m *MultiExitNetwork) Params() []*Param {
	var ps []*Param
	for _, stage := range m.Stages {
		for _, l := range stage {
			ps = append(ps, l.Params()...)
		}
	}
	for _, e := range m.Exits {
		ps = append(ps, e.Params()...)
	}
	return ps
}

// NumExits returns the exit count.
func (m *MultiExitNetwork) NumExits() int { return len(m.Exits) }

// MACsByKindThroughExit returns the per-sample MAC cost of leaving through
// exit k, by layer kind for the energy models: all stages up to and
// including k, plus k's head. Its Total is the single-number cost.
func (m *MultiExitNetwork) MACsByKindThroughExit(k int) KindMACs {
	var out KindMACs
	shape := m.InShape
	for s := 0; s <= k; s++ {
		for _, l := range m.Stages[s] {
			out.Add(l.Kind(), l.MACs(shape))
			shape = l.OutShape(shape)
		}
	}
	out.Add(KindDense, m.Exits[k].MACs([]int{shapeVolume(m.stageOut[k])}))
	return out
}

// forwardStages runs the backbone, returning each stage's output (batched)
// in the network's own slice, which the next pass overwrites.
func (m *MultiExitNetwork) forwardStages(x *tensor.Tensor, train bool) []*tensor.Tensor {
	if len(m.stageOuts) != len(m.Stages) {
		m.stageOuts = make([]*tensor.Tensor, len(m.Stages))
	}
	outs := m.stageOuts
	for s, stage := range m.Stages {
		for _, l := range stage {
			x = l.Forward(x, train)
		}
		outs[s] = x
	}
	return outs
}

// exitLogits classifies a stage output through its head. The flattening view
// header is reused across exits; that is safe because each exit's Backward
// (which reads the retained input) runs before the next exit's Forward.
func (m *MultiExitNetwork) exitLogits(k int, stageOut *tensor.Tensor, train bool) *tensor.Tensor {
	n := stageOut.Shape[0]
	flat := m.arena.view(m, slotView2, stageOut.Data, n, len(stageOut.Data)/n)
	return m.Exits[k].Forward(flat, train)
}

// Fit trains backbone and exits jointly with the uniformly weighted sum of
// per-exit cross-entropies. Returns the final epoch's mean loss. With
// cfg.Obs set, the run is wrapped in an nn.fit_multiexit span.
func (m *MultiExitNetwork) Fit(inputs *tensor.Tensor, labels []int, cfg TrainConfig) float64 {
	return fit(m, &m.arena, m.InShape, inputs, labels, cfg, "nn.fit_multiexit", obs.Int("exits", len(m.Exits)))
}

// trainStep runs one joint minibatch step (see Network.trainStep): every
// exit's weighted loss and head backward, then the backbone backward with
// each junction's exit gradient added in, clipping, and the update.
func (m *MultiExitNetwork) trainStep(bx *tensor.Tensor, by []int, params []*Param, opt *SGD) float64 {
	for _, p := range params {
		p.zeroGrad()
	}
	if len(m.headGrads) != len(m.Exits) {
		m.headGrads = make([]*tensor.Tensor, len(m.Exits))
	}
	stageOuts := m.forwardStages(bx, true)
	// Per-exit losses and head gradients. All exits share the (bs, Classes)
	// loss scratch — each exit's gradient is consumed by its head's Backward
	// before the next exit reuses the buffers.
	w := 1.0 / float64(len(m.Exits))
	loss := 0.0
	for k := range m.Exits {
		logits := m.exitLogits(k, stageOuts[k], true)
		probs := m.arena.tensor(m, slotProbs, logits.Shape...)
		g := m.arena.tensor(m, slotGrad, logits.Shape...)
		loss += w * m.loss.crossEntropyInto(m.ctx, logits, by, probs, g)
		g.Scale(w)
		m.headGrads[k] = m.Exits[k].Backward(g) // grad wrt flattened stage out
	}
	// Backbone backward, deepest stage first, accumulating the exit
	// gradient at each junction.
	var upstream *tensor.Tensor
	for s := len(m.Stages) - 1; s >= 0; s-- {
		g := m.arena.view(m, slotView, m.headGrads[s].Data, stageOuts[s].Shape...)
		if upstream != nil {
			// Zero-fill + copy + add reproduces Clone+Add bits; the
			// accumulator is consumed by the stage's last layer before the
			// next junction reuses it.
			acc := m.arena.tensor(m, slotAcc, stageOuts[s].Shape...)
			copy(acc.Data, g.Data)
			acc.Add(upstream)
			g = acc
		}
		for li := len(m.Stages[s]) - 1; li >= 0; li-- {
			g = m.Stages[s][li].Backward(g)
		}
		upstream = g
	}
	m.clip.clip(m.ctx, params, clipNorm)
	opt.StepCtx(m.ctx, params)
	return loss
}

// ExitDecision records where one sample left the network.
type ExitDecision struct {
	Exit  int
	Class int
	Conf  float64
}

// InferConfident routes each sample out of the first exit whose softmax
// confidence reaches tau (the deepest exit takes whatever remains).
func (m *MultiExitNetwork) InferConfident(x *tensor.Tensor, tau float64) []ExitDecision {
	n := x.Shape[0]
	out := make([]ExitDecision, n)
	decided := make([]bool, n)
	stageOuts := m.forwardStages(x, false)
	for k := range m.Exits {
		logits := m.exitLogits(k, stageOuts[k], false)
		probs := Softmax(logits)
		kk := probs.Shape[1]
		for i := 0; i < n; i++ {
			if decided[i] {
				continue
			}
			best, bi := math.Inf(-1), 0
			for j := 0; j < kk; j++ {
				if v := probs.Data[i*kk+j]; v > best {
					best, bi = v, j
				}
			}
			if best >= tau || k == len(m.Exits)-1 {
				out[i] = ExitDecision{Exit: k, Class: bi, Conf: best}
				decided[i] = true
			}
		}
	}
	return out
}

// InferAtExit classifies every sample at one fixed exit (HarvNet's
// energy-budgeted mode: the scheduler picks the deepest affordable exit).
func (m *MultiExitNetwork) InferAtExit(x *tensor.Tensor, k int) []int {
	stageOuts := m.forwardStages(x, false)
	logits := m.exitLogits(k, stageOuts[k], false)
	n, kk := logits.Shape[0], logits.Shape[1]
	out := make([]int, n)
	for i := 0; i < n; i++ {
		best, bi := math.Inf(-1), 0
		for j := 0; j < kk; j++ {
			if v := logits.Data[i*kk+j]; v > best {
				best, bi = v, j
			}
		}
		out[i] = bi
	}
	return out
}

// AccuracyAtExit evaluates top-1 accuracy through one exit.
func (m *MultiExitNetwork) AccuracyAtExit(x *tensor.Tensor, labels []int, k int) float64 {
	preds := m.InferAtExit(x, k)
	correct := 0
	for i, p := range preds {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}

// DeepestAffordableExit returns the deepest exit whose inference energy
// (per the per-MAC cost) fits the budget, or -1 if none does.
func (m *MultiExitNetwork) DeepestAffordableExit(budgetJ float64, energyOf func(KindMACs) float64) int {
	best := -1
	for k := 0; k < m.NumExits(); k++ {
		if energyOf(m.MACsByKindThroughExit(k)) <= budgetJ {
			best = k
		}
	}
	return best
}
