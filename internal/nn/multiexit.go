package nn

import (
	"fmt"
	"math"
	"math/rand"

	"solarml/internal/compute"
	"solarml/internal/obs"
	"solarml/internal/obs/energy"
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

	stageOut []([]int) // per-stage output shape (per sample)
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

// MACsThroughExit returns the per-sample MAC cost of leaving through exit
// k: all stages up to and including k, plus k's head.
func (m *MultiExitNetwork) MACsThroughExit(k int) int64 {
	var macs int64
	shape := m.InShape
	for s := 0; s <= k; s++ {
		for _, l := range m.Stages[s] {
			macs += l.MACs(shape)
			shape = l.OutShape(shape)
		}
	}
	macs += m.Exits[k].MACs([]int{shapeVolume(m.stageOut[k])})
	return macs
}

// MACsByKindThroughExit returns the per-kind breakdown for energy models.
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

// forwardStages runs the backbone, returning each stage's output (batched).
func (m *MultiExitNetwork) forwardStages(x *tensor.Tensor, train bool) []*tensor.Tensor {
	outs := make([]*tensor.Tensor, len(m.Stages))
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

// FitConfig configures joint multi-exit training: the per-exit loss
// weights default to uniform.
type FitConfig struct {
	Epochs      int
	BatchSize   int
	LR          float64
	Momentum    float64
	ExitWeights []float64
	ClipNorm    float64
	Seed        int64
	// Obs, when set, wraps the run in an nn.fit_multiexit span carrying
	// one nn.epoch event per epoch, mirroring TrainConfig.Obs.
	Obs *obs.Recorder
	// Energy and SampleEnergyJ book per-epoch training energy under the
	// train account, as in TrainConfig.
	Energy        *energy.Ledger
	SampleEnergyJ float64
}

// Fit trains backbone and exits jointly with a weighted sum of per-exit
// cross-entropies. Returns the final epoch's mean loss.
func (m *MultiExitNetwork) Fit(inputs *tensor.Tensor, labels []int, cfg FitConfig) float64 {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	if cfg.ClipNorm == 0 {
		cfg.ClipNorm = 5
	}
	weights := cfg.ExitWeights
	if weights == nil {
		weights = make([]float64, len(m.Exits))
		for i := range weights {
			weights[i] = 1.0 / float64(len(weights))
		}
	}
	if len(weights) != len(m.Exits) {
		panic(fmt.Sprintf("nn: %d exit weights for %d exits", len(weights), len(m.Exits)))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	opt := &SGD{LR: cfg.LR, Momentum: cfg.Momentum}
	params := m.Params()
	total := inputs.Shape[0]
	sample := len(inputs.Data) / total
	order := rng.Perm(total)
	bshape := append([]int{0}, m.InShape...)
	headGrads := make([]*tensor.Tensor, len(m.Exits))
	fit := cfg.Obs.StartSpan("nn.fit_multiexit",
		obs.Int("samples", total), obs.Int("epochs", cfg.Epochs),
		obs.Int("batch_size", cfg.BatchSize), obs.Int("exits", len(m.Exits)),
		obs.F64("lr", cfg.LR))
	var lastLoss float64
	for ep := 0; ep < cfg.Epochs; ep++ {
		rng.Shuffle(total, func(i, j int) { order[i], order[j] = order[j], order[i] })
		epochLoss, batches := 0.0, 0
		for startIdx := 0; startIdx < total; startIdx += cfg.BatchSize {
			end := startIdx + cfg.BatchSize
			if end > total {
				end = total
			}
			bs := end - startIdx
			bshape[0] = bs
			bx := m.arena.tensor(m, slotBatchX, bshape...)
			by := m.arena.intsBuf(m, slotBatchY, bs)
			for bi := 0; bi < bs; bi++ {
				src := order[startIdx+bi]
				copy(bx.Data[bi*sample:(bi+1)*sample], inputs.Data[src*sample:(src+1)*sample])
				by[bi] = labels[src]
			}
			for _, p := range params {
				p.Grad.Zero()
			}
			stageOuts := m.forwardStages(bx, true)
			// Per-exit losses and head gradients. All exits share the (bs,
			// Classes) loss scratch — each exit's gradient is consumed by
			// its head's Backward before the next exit reuses the buffers.
			loss := 0.0
			for k := range m.Exits {
				logits := m.exitLogits(k, stageOuts[k], true)
				probs := m.arena.tensor(m, slotProbs, logits.Shape...)
				g := m.arena.tensor(m, slotGrad, logits.Shape...)
				l := m.loss.crossEntropyInto(m.ctx, logits, by, probs, g)
				loss += weights[k] * l
				g.Scale(weights[k])
				headGrads[k] = m.Exits[k].Backward(g) // grad wrt flattened stage out
			}
			// Backbone backward, deepest stage first, accumulating the
			// exit gradient at each junction.
			var upstream *tensor.Tensor
			for s := len(m.Stages) - 1; s >= 0; s-- {
				g := m.arena.view(m, slotView, headGrads[s].Data, stageOuts[s].Shape...)
				if upstream != nil {
					// Zero-fill + copy + add reproduces Clone+Add bits; the
					// accumulator is consumed by the stage's last layer
					// before the next junction reuses it.
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
			if cfg.ClipNorm > 0 {
				m.clip.clip(m.ctx, params, cfg.ClipNorm)
			}
			opt.StepCtx(m.ctx, params)
			epochLoss += loss
			batches++
		}
		lastLoss = epochLoss / float64(batches)
		if cfg.Obs.Enabled() {
			fit.Event("nn.epoch", obs.Int("epoch", ep), obs.F64("loss", lastLoss))
		}
		if cfg.Energy != nil && cfg.SampleEnergyJ > 0 {
			cfg.Energy.ChargeSpan(&fit, energy.AccountTrain, cfg.SampleEnergyJ*float64(total))
		}
	}
	fit.End(obs.F64("loss", lastLoss))
	return lastLoss
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
