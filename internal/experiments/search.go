package experiments

import (
	"fmt"
	"math/rand"

	"solarml/internal/core"
	"solarml/internal/enas"
	"solarml/internal/evo"
	"solarml/internal/harvnet"
	"solarml/internal/munas"
	"solarml/internal/nas"
	"solarml/internal/obs"
	"solarml/internal/pareto"
)

// Scale selects the experiment size: the paper's settings or a reduced
// configuration for quick runs and tests.
type Scale int

const (
	// ScaleQuick: population 16, 50 cycles, 6 μNAS sensing configs.
	ScaleQuick Scale = iota
	// ScalePaper: population 50, sample 20, 150 cycles, 20 μNAS configs.
	ScalePaper
)

func (s Scale) enasConfig(task nas.Task, lambda float64, seed int64) enas.Config {
	cfg := enas.DefaultConfig(task, lambda)
	cfg.Seed = seed
	cfg.Workers = 4 // deterministic: results merge in generation order
	cfg.Cache = true
	if s == ScaleQuick {
		cfg.Population, cfg.SampleSize, cfg.Cycles, cfg.SensingEvery = 16, 6, 50, 10
	}
	// Telemetry, when attached via SetObs, rides along; it never consumes
	// random state, so instrumented runs stay seed-reproducible.
	return instrument(cfg)
}

func (s Scale) munasConfig(task nas.Task, seed int64) munas.Config {
	cfg := munas.DefaultConfig(task)
	cfg.Seed = seed
	cfg.Workers = 4
	cfg.Cache = true
	if s == ScaleQuick {
		cfg.Population, cfg.SampleSize, cfg.Cycles = 16, 6, 50
	}
	return instrumentMunas(cfg)
}

func (s Scale) munasConfigs() int {
	if s == ScaleQuick {
		return 6
	}
	return 20
}

// Fig10Result holds one task's accuracy/energy comparison (Fig 10a or 10b).
// All energies are ground-truth rescored (E_S + E_M per inference).
type Fig10Result struct {
	Task nas.Task
	// ENASBest holds the per-λ winners (λ = 0, 0.5, 1).
	ENASLambdas []float64
	ENASBest    []pareto.Point
	ENASEntries []enas.Entry
	// ENASFront is the Pareto front over the whole eNAS history.
	ENASFront []pareto.Point
	// MuNASBest holds each sensing configuration's best-accuracy model;
	// MuNASFront is their Pareto front.
	MuNASBest    []pareto.Point
	MuNASEntries []munas.Entry
	MuNASFront   []pareto.Point
}

// truthPointENAS rescoreds an eNAS entry with ground-truth energy.
func truthPoint(truth *nas.TruthEnergy, cand *nas.Candidate, res nas.Result, tag int) pareto.Point {
	e := truth.SensingEnergy(cand) + truth.InferenceEnergy(res.MACsByKind)
	return pareto.Point{Acc: res.Accuracy, Energy: e, Tag: tag}
}

// Fig10 reproduces Fig 10 for one task: eNAS at λ ∈ {0, 0.5, 1} against
// μNAS runs over 20 random sensing configurations, both using the surrogate
// evaluator with their own fitted energy models during search, and both
// rescored with ground truth for reporting.
func Fig10(task nas.Task, scale Scale, seed int64) (*Fig10Result, error) {
	sp := recorder().StartSpan("experiments.fig10",
		obs.Str("task", task.String()), obs.Int64("seed", seed))
	defer sp.End()
	var space *nas.Space
	if task == nas.TaskGesture {
		space = nas.GestureSpace()
	} else {
		space = nas.KWSSpace()
	}
	truth := nas.NewTruthEnergy()

	// Each method searches with its own fitted energy model (§IV-A).
	enasEnergy, err := nas.CalibrateEnergy(space, 300, true, true, seed)
	if err != nil {
		return nil, fmt.Errorf("fig10: eNAS calibration: %w", err)
	}
	munasEnergy, err := nas.CalibrateEnergy(space, 300, false, false, seed+1)
	if err != nil {
		return nil, fmt.Errorf("fig10: µNAS calibration: %w", err)
	}

	res := &Fig10Result{Task: task}

	// eNAS sweeps λ.
	var enasAll []pareto.Point
	for i, lambda := range []float64{0, 0.5, 1} {
		out, err := enas.Search(space, nas.NewSurrogateEvaluator(enasEnergy), scale.enasConfig(task, lambda, seed+int64(10+i)))
		if err != nil {
			return nil, fmt.Errorf("fig10: eNAS λ=%v: %w", lambda, err)
		}
		res.ENASLambdas = append(res.ENASLambdas, lambda)
		res.ENASBest = append(res.ENASBest, truthPoint(truth, out.Best.Cand, out.Best.Res, i))
		res.ENASEntries = append(res.ENASEntries, out.Best)
		for j, e := range out.History {
			if !nas.DefaultConstraints(task).Feasible(e.Res.Accuracy) {
				continue
			}
			enasAll = append(enasAll, truthPoint(truth, e.Cand, e.Res, i*100000+j))
		}
	}
	res.ENASFront = pareto.Front(enasAll)

	// μNAS: 20 random sensing configurations, architecture-only search.
	// The runs are independent, so they execute in parallel; results are
	// merged in configuration order, keeping the experiment deterministic.
	rng := rand.New(rand.NewSource(seed + 99))
	n := scale.munasConfigs()
	sensings := make([]*nas.Candidate, n)
	for i := range sensings {
		sensings[i] = space.RandomCandidate(rng)
	}
	outs := make([]*munas.Outcome, n)
	errs := make([]error, n)
	evo.ForEach(4, n, func(i int) {
		outs[i], errs[i] = munas.Search(space, sensings[i],
			nas.NewSurrogateEvaluator(munasEnergy), scale.munasConfig(task, seed+int64(100+i)))
	})
	var munasAll []pareto.Point
	for i, out := range outs {
		if errs[i] != nil {
			return nil, fmt.Errorf("fig10: µNAS config %d: %w", i, errs[i])
		}
		best := out.BestAccuracy
		res.MuNASBest = append(res.MuNASBest, truthPoint(truth, best.Cand, best.Res, i))
		res.MuNASEntries = append(res.MuNASEntries, best)
		for j, e := range out.History {
			if !nas.DefaultConstraints(task).Feasible(e.Res.Accuracy) {
				continue
			}
			munasAll = append(munasAll, truthPoint(truth, e.Cand, e.Res, i*100000+j))
		}
	}
	res.MuNASFront = pareto.Front(munasAll)
	return res, nil
}

// EnergyRatioAt reproduces the paper's headline comparison ("for a targeted
// accuracy of X, μNAS spends more than 1.5× energy on average"): the mean
// energy of the μNAS searched models whose accuracy lands near the target
// (within ±tol, or above it) against the cheapest eNAS front point reaching
// the target. ok is false if either side has no qualifying point.
func (r *Fig10Result) EnergyRatioAt(target, tol float64) (enasE, munasAvgE, ratio float64, ok bool) {
	e, okE := pareto.CheapestAbove(r.ENASFront, target)
	if !okE {
		return 0, 0, 0, false
	}
	var sum float64
	n := 0
	for _, p := range r.MuNASBest {
		if p.Acc >= target-tol {
			sum += p.Energy
			n++
		}
	}
	if n == 0 {
		return 0, 0, 0, false
	}
	avg := sum / float64(n)
	return e.Energy, avg, avg / e.Energy, true
}

// AccuracyAtBudget returns each method's best reported accuracy within an
// energy budget (the Fig 10b "given 10 mJ" comparison): the eNAS front
// against the μNAS searched models.
func (r *Fig10Result) AccuracyAtBudget(budgetJ float64) (enasAcc, munasAcc float64, ok bool) {
	e, okE := pareto.BestUnderBudget(r.ENASFront, budgetJ)
	m, okM := pareto.BestUnderBudget(r.MuNASBest, budgetJ)
	if !okE || !okM {
		return 0, 0, false
	}
	return e.Acc, m.Acc, true
}

// EndToEndResult is the §V-D summary: per-task SolarML vs PS+μNAS sessions
// and harvesting times.
type EndToEndResult struct {
	Digits *core.EndToEndComparison
	KWS    *core.EndToEndComparison
}

// EndToEnd reproduces §V-D: it takes each task's Fig 10 outcome, averages
// the eNAS winners into the SolarML session and pairs them against the
// μNAS points with the closest accuracies on a PS + deep-sleep baseline.
func EndToEnd(scale Scale, seed int64) (*EndToEndResult, error) {
	sp := recorder().StartSpan("experiments.endtoend", obs.Int64("seed", seed))
	defer sp.End()
	p := core.NewPlatform()
	p.SetObs(recorder())
	out := &EndToEndResult{}
	for _, task := range []nas.Task{nas.TaskGesture, nas.TaskKWS} {
		fig10, err := Fig10(task, scale, seed)
		if err != nil {
			return nil, err
		}
		cmp, err := endToEndFor(p, task, fig10)
		if err != nil {
			return nil, err
		}
		if task == nas.TaskGesture {
			out.Digits = cmp
		} else {
			out.KWS = cmp
		}
	}
	return out, nil
}

// endToEndFor builds the §V-D comparison for one task from its Fig 10 runs,
// following the paper's averaging protocol: the SolarML side averages the
// eNAS winners across λ ∈ {0, 0.5, 1}; the baseline averages the three μNAS
// points with accuracies closest to the eNAS mean.
func endToEndFor(p *core.Platform, task nas.Task, fig10 *Fig10Result) (*core.EndToEndComparison, error) {
	const waitS = 5
	if len(fig10.ENASEntries) == 0 || len(fig10.MuNASEntries) == 0 {
		return nil, fmt.Errorf("endtoend: empty Fig 10 result for %s", task)
	}
	// Mean eNAS accuracy anchors the μNAS pairing.
	var meanAcc float64
	for _, e := range fig10.ENASEntries {
		meanAcc += e.Res.Accuracy
	}
	meanAcc /= float64(len(fig10.ENASEntries))
	// μNAS points at comparable accuracy: everything within ±0.03 of the
	// eNAS mean, or the three closest points if the band is too thin.
	order := make([]int, len(fig10.MuNASEntries))
	for i := range order {
		order[i] = i
	}
	sortByGap(order, fig10.MuNASEntries, meanAcc)
	nBase := 0
	for _, idx := range order {
		gap := fig10.MuNASEntries[idx].Res.Accuracy - meanAcc
		if gap < 0 {
			gap = -gap
		}
		if gap <= 0.03 {
			nBase++
		}
	}
	if nBase < 3 {
		nBase = 3
	}
	if nBase > len(order) {
		nBase = len(order)
	}

	// Average the eNAS sessions; keep the λ=0.5 report as representative.
	var smlTotal float64
	var smlRep *core.SessionReport
	for i, e := range fig10.ENASEntries {
		rep, err := p.RunSession(core.SolarMLConfig("SolarML "+task.String(), task,
			e.Cand.Gesture, e.Cand.Audio, e.Res.MACsByKind, waitS))
		if err != nil {
			return nil, err
		}
		smlTotal += rep.Total
		if i == 1 || smlRep == nil {
			smlRep = rep
		}
	}
	smlAvg := smlTotal / float64(len(fig10.ENASEntries))
	// Average the baseline sessions.
	var baseTotal float64
	var baseRep *core.SessionReport
	for k := 0; k < nBase; k++ {
		e := fig10.MuNASEntries[order[k]]
		rep, err := p.RunSession(core.PSBaselineConfig("PS+µNAS "+task.String(), task,
			e.Cand.Gesture, e.Cand.Audio, e.Res.MACsByKind, waitS))
		if err != nil {
			return nil, err
		}
		baseTotal += rep.Total
		if baseRep == nil {
			baseRep = rep
		}
	}
	baseAvg := baseTotal / float64(nBase)

	smlRep.Total = smlAvg
	baseRep.Total = baseAvg
	cmp := &core.EndToEndComparison{
		SolarML:      smlRep,
		Baseline:     baseRep,
		Savings:      1 - smlAvg/baseAvg,
		HarvestTimeS: make(map[float64]float64),
	}
	for _, lux := range []float64{250, 500, 1000} {
		cmp.HarvestTimeS[lux] = p.HarvestTime(smlAvg, lux)
	}
	return cmp, nil
}

// sortByGap orders indices by |accuracy − target|.
func sortByGap(order []int, entries []munas.Entry, target float64) {
	gap := func(i int) float64 {
		g := entries[i].Res.Accuracy - target
		if g < 0 {
			g = -g
		}
		return g
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && gap(order[j]) < gap(order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
}

// AblationResult compares eNAS variants at λ = 1 (energy-focused, where
// energy-model fidelity matters most) under ground-truth rescoring, each
// averaged over three seeds: the full method, a variant searching with the
// μNAS total-MACs energy model, a variant whose sensing parameters are
// never grid-refined, and the HarvNet A/E objective.
type AblationResult struct {
	Full        pareto.Point
	TotalMACs   pareto.Point
	NoSensing   pareto.Point
	HarvNetBest pareto.Point
}

// ablationSeeds is the number of seeds averaged per variant.
const ablationSeeds = 3

// Ablation runs the design-choice ablations of DESIGN.md §4.
func Ablation(task nas.Task, scale Scale, seed int64) (*AblationResult, error) {
	sp := recorder().StartSpan("experiments.ablation",
		obs.Str("task", task.String()), obs.Int64("seed", seed))
	defer sp.End()
	var space *nas.Space
	if task == nas.TaskGesture {
		space = nas.GestureSpace()
	} else {
		space = nas.KWSSpace()
	}
	truth := nas.NewTruthEnergy()
	layerwise, err := nas.CalibrateEnergy(space, 300, true, true, seed)
	if err != nil {
		return nil, err
	}
	totalOnly, err := nas.CalibrateEnergy(space, 300, false, true, seed)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{}

	avgENAS := func(energy nas.EnergyModel, freezeSensing bool) (pareto.Point, error) {
		var acc, e float64
		for s := int64(0); s < ablationSeeds; s++ {
			cfg := scale.enasConfig(task, 1, seed+1+s)
			if freezeSensing {
				cfg.SensingEvery = cfg.Cycles + 1
			}
			out, err := enas.Search(space, nas.NewSurrogateEvaluator(energy), cfg)
			if err != nil {
				return pareto.Point{}, err
			}
			p := truthPoint(truth, out.Best.Cand, out.Best.Res, int(s))
			acc += p.Acc
			e += p.Energy
		}
		return pareto.Point{Acc: acc / ablationSeeds, Energy: e / ablationSeeds}, nil
	}

	if res.Full, err = avgENAS(layerwise, false); err != nil {
		return nil, err
	}
	if res.TotalMACs, err = avgENAS(totalOnly, false); err != nil {
		return nil, err
	}
	if res.NoSensing, err = avgENAS(layerwise, true); err != nil {
		return nil, err
	}

	// HarvNet objective from fixed random sensing configurations.
	var acc, e float64
	for s := int64(0); s < ablationSeeds; s++ {
		rng := rand.New(rand.NewSource(seed + 7 + s))
		sensing := space.RandomCandidate(rng)
		hcfg := harvnet.DefaultConfig(task)
		hcfg.Seed = seed + 8 + s
		hcfg.Workers = 4
		hcfg.Cache = true
		if scale == ScaleQuick {
			hcfg.Population, hcfg.SampleSize, hcfg.Cycles = 16, 6, 50
		}
		hout, err := harvnet.Search(space, sensing, nas.NewSurrogateEvaluator(totalOnly), instrumentHarvnet(hcfg))
		if err != nil {
			return nil, err
		}
		p := truthPoint(truth, hout.Best.Cand, hout.Best.Res, int(s))
		acc += p.Acc
		e += p.Energy
	}
	res.HarvNetBest = pareto.Point{Acc: acc / ablationSeeds, Energy: e / ablationSeeds}
	return res, nil
}
