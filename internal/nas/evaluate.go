package nas

import (
	"fmt"
	"math/rand"
	"sync"

	"solarml/internal/compute"
	"solarml/internal/dataset"
	"solarml/internal/energymodel"
	"solarml/internal/mcu"
	"solarml/internal/nn"
	"solarml/internal/obs"
	"solarml/internal/tensor"
)

// Result is the outcome of evaluating one candidate.
type Result struct {
	// Accuracy is top-1 test accuracy.
	Accuracy float64
	// SensingJ and InferJ are the per-inference energy estimates used by
	// the search; EnergyJ is their sum (E_S + E_M).
	SensingJ float64
	InferJ   float64
	EnergyJ  float64
	// TotalMACs and MACsByKind describe the network's compute.
	TotalMACs  int64
	MACsByKind nn.KindMACs
}

// Evaluator scores candidates.
//
// Determinism contract: Evaluate must be a pure function of the candidate's
// Fingerprint — both repo evaluators honour it (the surrogate derives its
// noise from the fingerprint; TrainEvaluator derives its init seed from it)
// — and must not share mutable state across concurrent calls. The search
// engine (internal/evo) relies on both: the first for its fingerprint-keyed
// evaluation memo, the second for its parallel evaluation batches. Only
// EvaluateFrom (WarmStartEvaluator) may depend on more than the fingerprint,
// which is why the engine never memoizes warm-start results.
type Evaluator interface {
	Evaluate(c *Candidate) (Result, error)
}

// EnergyModel estimates candidate energy during search. eNAS plugs in the
// fitted layer-wise + sensing models; μNAS plugs in its total-MACs model;
// final reporting uses the ground truth.
type EnergyModel interface {
	SensingEnergy(c *Candidate) float64
	InferenceEnergy(macs nn.KindMACs) float64
}

// TruthEnergy is the simulator ground truth (used for final reporting and
// as the oracle upper bound in ablations).
type TruthEnergy struct {
	Coeff   energymodel.Coefficients
	Profile mcu.PowerProfile
}

// NewTruthEnergy returns the calibrated ground truth.
func NewTruthEnergy() *TruthEnergy {
	return &TruthEnergy{Coeff: energymodel.DefaultCoefficients(), Profile: mcu.NRF52840()}
}

// SensingEnergy implements EnergyModel.
func (t *TruthEnergy) SensingEnergy(c *Candidate) float64 {
	if c.Task == TaskGesture {
		return energymodel.GestureSensingTrue(t.Profile, c.Gesture)
	}
	return energymodel.AudioSensingTrue(t.Profile, c.Audio)
}

// InferenceEnergy implements EnergyModel.
func (t *TruthEnergy) InferenceEnergy(macs nn.KindMACs) float64 {
	return t.Coeff.TrueEnergy(macs)
}

// FittedEnergy holds the linear energy models fitted on a measurement
// campaign, each frozen into its coefficients. Gesture and Audio are nil
// when the campaign fitted no sensing model.
type FittedEnergy struct {
	Infer   energymodel.InferenceLinear
	Gesture *energymodel.GestureLinear
	Audio   *energymodel.AudioLinear
}

// SensingEnergy implements EnergyModel.
func (f *FittedEnergy) SensingEnergy(c *Candidate) float64 {
	if c.Task == TaskGesture {
		if f.Gesture == nil {
			return 0
		}
		return f.Gesture.Predict(c.Gesture)
	}
	if f.Audio == nil {
		return 0
	}
	return f.Audio.Predict(c.Audio)
}

// InferenceEnergy implements EnergyModel.
func (f *FittedEnergy) InferenceEnergy(macs nn.KindMACs) float64 {
	return f.Infer.Predict(macs)
}

// CalibrateEnergy runs the §IV-A measurement campaign: nMeasure random
// candidates are "measured" on the simulator and the linear models are
// fitted and frozen. layerwise selects the eNAS per-kind inference proxy;
// sensing models are fitted only when withSensing is set (μNAS does not
// model sensing).
func CalibrateEnergy(space *Space, nMeasure int, layerwise, withSensing bool, seed int64) (*FittedEnergy, error) {
	camp, err := measureCampaign(space, nMeasure, withSensing, seed)
	if err != nil {
		return nil, err
	}
	out := &FittedEnergy{}
	if out.Infer, err = energymodel.FitInferenceLinear(camp.infer, layerwise); err != nil {
		return nil, err
	}
	if len(camp.gesture) > 0 {
		m, err := energymodel.FitGestureLinear(camp.gesture)
		if err != nil {
			return nil, err
		}
		out.Gesture = &m
	}
	if len(camp.audio) > 0 {
		m, err := energymodel.FitAudioLinear(camp.audio)
		if err != nil {
			return nil, err
		}
		out.Audio = &m
	}
	return out, nil
}

// campaign is the measured samples of one calibration campaign.
type campaign struct {
	infer   []energymodel.InferenceSample
	gesture []energymodel.GestureSample
	audio   []energymodel.AudioSample
}

// measureCampaign draws and measures CalibrateEnergy's campaign.
func measureCampaign(space *Space, nMeasure int, withSensing bool, seed int64) (campaign, error) {
	rng := rand.New(rand.NewSource(seed))
	m := energymodel.NewMeasurer(seed + 1)
	n := max(nMeasure, 0)
	camp := campaign{infer: make([]energymodel.InferenceSample, 0, n)}
	if withSensing && space.Task == TaskGesture {
		camp.gesture = make([]energymodel.GestureSample, 0, n)
	} else if withSensing {
		camp.audio = make([]energymodel.AudioSample, 0, n)
	}
	for i := 0; i < nMeasure; i++ {
		c := space.RandomCandidate(rng)
		an, err := c.archAnalysis()
		if err != nil {
			return campaign{}, err
		}
		macs := an.MACs
		camp.infer = append(camp.infer, energymodel.InferenceSample{
			MACs: macs, EnergyJ: m.MeasureInference(macs),
		})
		if !withSensing {
			continue
		}
		if space.Task == TaskGesture {
			camp.gesture = append(camp.gesture, energymodel.GestureSample{
				Cfg: c.Gesture, EnergyJ: m.MeasureGestureSensing(c.Gesture),
			})
		} else {
			camp.audio = append(camp.audio, energymodel.AudioSample{
				Cfg: c.Audio, EnergyJ: m.MeasureAudioSensing(c.Audio),
			})
		}
	}
	return camp, nil
}

// TrainEvaluator trains every candidate for real on the synthetic datasets
// (the TrainEval step of Algorithm 1) and reports test accuracy plus
// model-based energies.
type TrainEvaluator struct {
	Energy EnergyModel
	// Gesture datasets (used when the space task is TaskGesture).
	GestureTrain, GestureTest *dataset.GestureSet
	// KWS datasets.
	KWSTrain, KWSTest *dataset.KWSSet
	// Training budget per candidate.
	Epochs    int
	BatchSize int
	LR        float64
	Seed      int64
	// WarmStart enables weight inheritance: mutated children copy the
	// trained tensors the mutation did not touch from their parent and
	// train for WarmEpochs (default Epochs/2, min 1) instead of Epochs.
	WarmStart  bool
	WarmEpochs int
	// Compute, when set, runs every candidate's training and accuracy
	// kernels on its backend (nil runs them serially). Size it with
	// compute.BudgetWorkers so candidate-level parallelism (the enas
	// Workers pool sharing this evaluator) times kernel workers never
	// oversubscribes cores. The context is shared by all evaluator
	// goroutines; a compute.Context is immutable, so that is safe.
	Compute *compute.Context
	// Obs, when set, wraps every evaluation in a nas.evaluate span
	// (fingerprint, warm-start, epochs, accuracy, energy) with nn.fit /
	// nn.epoch sub-events from training and one nn.layer event per layer
	// of a profiled test-batch forward — the timings that back the
	// layer-wise energy model's sanity checks.
	Obs *obs.Recorder
	// Metrics, when set, receives each candidate network's step-arena
	// tallies on the nn.arena_hits / nn.arena_misses counters once its
	// evaluation ends, so a search run reports fleet-wide training-buffer
	// reuse.
	Metrics *obs.Registry

	mu      sync.Mutex
	cache   map[uint64]materialized
	trained *paramStore
}

type materialized struct {
	trainX, testX *tensor.Tensor
	trainY, testY []int
}

// sensingKey fingerprints only the sensing half of a candidate: the
// fingerprint of the same sensing over an empty body.
func sensingKey(c *Candidate) uint64 {
	sensing := Candidate{Task: c.Task, Gesture: c.Gesture, Audio: c.Audio, Arch: &nn.Arch{}}
	return sensing.Fingerprint()
}

// materializeFor renders train/test datasets under the candidate's sensing
// configuration, with caching keyed on the sensing parameters.
func (e *TrainEvaluator) materializeFor(c *Candidate) (materialized, error) {
	key := sensingKey(c)
	e.mu.Lock()
	if e.cache == nil {
		e.cache = make(map[uint64]materialized)
	}
	if m, ok := e.cache[key]; ok {
		e.mu.Unlock()
		return m, nil
	}
	e.mu.Unlock()
	var m materialized
	var err error
	switch c.Task {
	case TaskGesture:
		if e.GestureTrain == nil || e.GestureTest == nil {
			return m, fmt.Errorf("nas: gesture datasets not configured")
		}
		m.trainX, m.trainY, err = e.GestureTrain.Materialize(c.Gesture)
		if err != nil {
			return m, err
		}
		m.testX, m.testY, err = e.GestureTest.Materialize(c.Gesture)
	case TaskKWS:
		if e.KWSTrain == nil || e.KWSTest == nil {
			return m, fmt.Errorf("nas: KWS datasets not configured")
		}
		m.trainX, m.trainY, err = e.KWSTrain.Materialize(c.Audio)
		if err != nil {
			return m, err
		}
		m.testX, m.testY, err = e.KWSTest.Materialize(c.Audio)
	}
	if err != nil {
		return m, err
	}
	e.mu.Lock()
	e.cache[key] = m
	e.mu.Unlock()
	return m, nil
}

// Evaluate implements Evaluator (cold start).
func (e *TrainEvaluator) Evaluate(c *Candidate) (Result, error) {
	return e.evaluate(c, nil)
}

// EvaluateFrom implements WarmStartEvaluator: when warm starting is enabled
// and the parent's trained weights are stored, the child inherits every
// tensor its mutation left untouched and trains a shorter schedule.
func (e *TrainEvaluator) EvaluateFrom(child, parent *Candidate) (Result, error) {
	return e.evaluate(child, parent)
}

func (e *TrainEvaluator) evaluate(c, parent *Candidate) (Result, error) {
	var res Result
	sp := e.Obs.StartSpan("nas.evaluate",
		obs.Str("task", c.Task.String()),
		obs.Int64("fingerprint", int64(c.Fingerprint())),
		obs.Bool("warm", e.WarmStart && parent != nil))
	if err := c.Validate(); err != nil {
		sp.End(obs.Str("error", err.Error()))
		return res, err
	}
	data, err := e.materializeFor(c)
	if err != nil {
		sp.End(obs.Str("error", err.Error()))
		return res, err
	}
	net, err := c.Arch.Build()
	if err != nil {
		sp.End(obs.Str("error", err.Error()))
		return res, err
	}
	rng := rand.New(rand.NewSource(e.Seed + int64(c.Fingerprint()%1_000_003)))
	net.Init(rng)
	epochs, bs, lr := e.Epochs, e.BatchSize, e.LR
	if epochs == 0 {
		epochs = 4
	}
	if bs == 0 {
		bs = 16
	}
	if lr == 0 {
		lr = 0.05
	}
	if e.WarmStart && parent != nil {
		entry, ok := e.store().get(parent.Fingerprint())
		if ok && inheritParams(net, entry.sigs, entry.snap) > 0 {
			epochs = e.WarmEpochs
			if epochs <= 0 {
				epochs = max(1, (e.Epochs+1)/2)
			}
		}
	}
	net.SetCompute(e.Compute)
	net.Fit(data.trainX, data.trainY, nn.TrainConfig{
		Epochs: epochs, BatchSize: bs, LR: lr, Momentum: 0.9, Seed: e.Seed,
		Obs: e.Obs,
	})
	if e.WarmStart {
		e.store().put(c.Fingerprint(), trainedEntry{snap: net.SnapshotParams(), sigs: paramSigs(net)})
	}
	res.Accuracy = net.Accuracy(data.testX, data.testY)
	res.MACsByKind = net.MACsByKind()
	res.TotalMACs = net.TotalMACs()
	if e.Energy != nil {
		res.SensingJ = e.Energy.SensingEnergy(c)
		res.InferJ = e.Energy.InferenceEnergy(res.MACsByKind)
		res.EnergyJ = res.SensingJ + res.InferJ
	}
	if e.Obs.Enabled() {
		// Per-layer forward timings on one test batch: the wall-clock
		// counterpart of the layer-wise energy features, kept in the trace
		// so energy-model sanity checks can correlate time against MACs.
		n := data.testX.Shape[0]
		if n > 16 {
			n = 16
		}
		sample := len(data.testX.Data) / data.testX.Shape[0]
		bshape := append([]int{n}, net.InShape...)
		bx := tensor.FromSlice(data.testX.Data[:n*sample], bshape...)
		_, timings := net.ForwardProfiled(bx, false)
		nn.EmitLayerTimings(e.Obs, timings, n)
	}
	if e.Metrics != nil {
		e.Metrics.Counter("nn.arena_hits").Add(net.Arena().Hits())
		e.Metrics.Counter("nn.arena_misses").Add(net.Arena().Misses())
	}
	sp.End(obs.Int("epochs", epochs),
		obs.F64("accuracy", res.Accuracy),
		obs.F64("energy_j", res.EnergyJ),
		obs.Int64("macs", res.TotalMACs))
	return res, nil
}

// store lazily initializes the lineage snapshot store.
func (e *TrainEvaluator) store() *paramStore {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.trained == nil {
		e.trained = newParamStore(64)
	}
	return e.trained
}
