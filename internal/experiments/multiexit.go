package experiments

import (
	"fmt"
	"math/rand"

	"solarml/internal/dataset"
	"solarml/internal/enas"
	"solarml/internal/energymodel"
	"solarml/internal/nas"
	"solarml/internal/nn"
	"solarml/internal/pareto"
	"solarml/internal/quant"
)

// MultiExitPoint is one budget step of the HarvNet-style evaluation: the
// deepest affordable exit under the budget and its test accuracy.
type MultiExitPoint struct {
	BudgetJ  float64
	Exit     int // -1 when no exit is affordable
	Accuracy float64
	EnergyJ  float64 // actual energy through the chosen exit
}

// MultiExitResult is the accuracy-versus-available-energy curve of a
// trained multi-exit network — the mechanism of the HarvNet baseline [5],
// reproduced here as an extension experiment (the paper cites but does not
// re-evaluate it).
type MultiExitResult struct {
	ExitMACs   []int64
	ExitAccs   []float64
	Curve      []MultiExitPoint
	Confident  float64 // accuracy with τ=0.9 confidence routing
	ShareEarly float64 // fraction of samples leaving before the final exit
}

// MultiExit trains a three-exit gesture network for real and sweeps the
// energy budget.
func MultiExit(seed int64) (*MultiExitResult, error) {
	rng := rand.New(rand.NewSource(seed))
	full := dataset.BuildGestureSet(200, 500, seed)
	train, test := full.Split(4)
	cfg := dataset.GestureConfig{Channels: 6, RateHz: 60,
		Quant: quant.Config{Res: quant.Int, Bits: 8}}
	trX, trY, err := train.Materialize(cfg)
	if err != nil {
		return nil, err
	}
	teX, teY, err := test.Materialize(cfg)
	if err != nil {
		return nil, err
	}
	arch := &nn.Arch{
		Input: cfg.InputShape(),
		Body: []nn.LayerSpec{
			{Kind: nn.KindConv, Out: 4, K: 3, Stride: 1, Pad: 1},
			{Kind: nn.KindReLU}, // exit 0
			{Kind: nn.KindMaxPool, K: 2},
			{Kind: nn.KindConv, Out: 8, K: 3, Stride: 1, Pad: 1},
			{Kind: nn.KindReLU}, // exit 1
			{Kind: nn.KindMaxPool, K: 2},
		},
		Classes: dataset.NumGestureClasses,
	}
	m, err := nn.NewMultiExit(arch, []int{1, 4})
	if err != nil {
		return nil, err
	}
	m.Init(rng)
	m.SetCompute(computeCtx())
	m.Fit(trX, trY, nn.TrainConfig{Epochs: 10, BatchSize: 16, LR: 0.03, Momentum: 0.9, Seed: seed})

	coeff := energymodel.DefaultCoefficients()
	res := &MultiExitResult{}
	for k := 0; k < m.NumExits(); k++ {
		res.ExitMACs = append(res.ExitMACs, m.MACsByKindThroughExit(k).Total())
		res.ExitAccs = append(res.ExitAccs, m.AccuracyAtExit(teX, teY, k))
	}
	// Budget sweep from below the cheapest exit to above the deepest.
	eMax := coeff.TrueEnergy(m.MACsByKindThroughExit(m.NumExits() - 1))
	for _, frac := range []float64{0.2, 0.5, 0.8, 1.0, 1.3} {
		budget := eMax * frac
		k := m.DeepestAffordableExit(budget, coeff.TrueEnergy)
		pt := MultiExitPoint{BudgetJ: budget, Exit: k}
		if k >= 0 {
			pt.Accuracy = m.AccuracyAtExit(teX, teY, k)
			pt.EnergyJ = coeff.TrueEnergy(m.MACsByKindThroughExit(k))
		}
		res.Curve = append(res.Curve, pt)
	}
	// Confidence routing at τ = 0.9.
	dec := m.InferConfident(teX, 0.9)
	correct, early := 0, 0
	for i, d := range dec {
		if d.Class == teY[i] {
			correct++
		}
		if d.Exit < m.NumExits()-1 {
			early++
		}
	}
	res.Confident = float64(correct) / float64(len(teY))
	res.ShareEarly = float64(early) / float64(len(teY))
	return res, nil
}

// ObjectiveComparisonResult compares the three search objectives of §IV-B
// on identical space/evaluator/budget: eNAS's normalized λ trade-off, the
// μNAS-style random scalarization, and HarvNet's A/E ratio. Hyper is the
// hypervolume (accuracy × energy-saving area) each objective's feasible
// search front dominates, normalized so eNAS = 1.
type ObjectiveComparisonResult struct {
	ENASHyper    float64
	RandomHyper  float64
	HarvNetHyper float64
}

// hypervolume measures the area dominated by a Pareto front (sorted by
// energy ascending) above acc=accRef and below energy=eRef.
func hypervolume(front []pareto.Point, accRef, eRef float64) float64 {
	hv := 0.0
	bestAcc := accRef
	for _, p := range front { // ascending energy
		if p.Energy >= eRef || p.Acc <= bestAcc {
			continue
		}
		hv += (eRef - p.Energy) * (p.Acc - bestAcc)
		bestAcc = p.Acc
	}
	return hv
}

// ObjectiveComparison runs the same two-phase search with three different
// objectives over the same space, evaluator, and budget, and compares the
// hypervolume of the feasible fronts their histories trace. It isolates
// the §IV-B claim that the λ-objective explores the Pareto frontier
// controllably while A/E cannot and random scalarization is weight-luck.
func ObjectiveComparison(task nas.Task, scale Scale, seed int64) (*ObjectiveComparisonResult, error) {
	var space *nas.Space
	if task == nas.TaskGesture {
		space = nas.GestureSpace()
	} else {
		space = nas.KWSSpace()
	}
	truth := nas.NewTruthEnergy()
	fitted, err := nas.CalibrateEnergy(space, 300, true, true, seed)
	if err != nil {
		return nil, err
	}
	eval := nas.NewSurrogateEvaluator(fitted)

	frontFor := func(objective func(rng *rand.Rand) func(acc, e, eMin, eMax float64) float64, lambdaSweep bool) ([]pareto.Point, error) {
		var pts []pareto.Point
		lambdas := []float64{0.5}
		if lambdaSweep {
			lambdas = []float64{0, 0.5, 1}
		}
		for i, lambda := range lambdas {
			cfg := scale.enasConfig(task, lambda, seed+int64(i))
			if objective != nil {
				cfg.Objective = objective(rand.New(rand.NewSource(seed + int64(i))))
			}
			out, err := enas.Search(space, eval, cfg)
			if err != nil {
				return nil, err
			}
			for j, e := range out.History {
				if !nas.DefaultConstraints(task).Feasible(e.Res.Accuracy) {
					continue
				}
				pts = append(pts, truthPoint(truth, e.Cand, e.Res, i*100000+j))
			}
		}
		return pareto.Front(pts), nil
	}

	enasFront, err := frontFor(nil, true)
	if err != nil {
		return nil, err
	}
	randomFront, err := frontFor(func(rng *rand.Rand) func(acc, e, eMin, eMax float64) float64 {
		return func(acc, e, eMin, eMax float64) float64 {
			w := rng.Float64()
			span := eMax - eMin
			if span <= 0 {
				span = 1
			}
			return w*acc - (1-w)*(e-eMin)/span
		}
	}, false)
	if err != nil {
		return nil, err
	}
	ratioFront, err := frontFor(func(*rand.Rand) func(acc, e, eMin, eMax float64) float64 {
		return func(acc, e, eMin, eMax float64) float64 {
			if e <= 0 {
				return 0
			}
			return acc / e
		}
	}, false)
	if err != nil {
		return nil, err
	}

	// Shared reference point: accuracy floor at the feasibility cap,
	// energy at 1.05× the dearest front point across methods.
	accRef := 1 - nas.DefaultConstraints(task).MaxError
	eRef := 0.0
	for _, front := range [][]pareto.Point{enasFront, randomFront, ratioFront} {
		for _, p := range front {
			if p.Energy > eRef {
				eRef = p.Energy
			}
		}
	}
	eRef *= 1.05
	base := hypervolume(enasFront, accRef, eRef)
	if base == 0 {
		return nil, fmt.Errorf("objective comparison: empty eNAS front")
	}
	return &ObjectiveComparisonResult{
		ENASHyper:    1,
		RandomHyper:  hypervolume(randomFront, accRef, eRef) / base,
		HarvNetHyper: hypervolume(ratioFront, accRef, eRef) / base,
	}, nil
}

// FormatMultiExit renders the result as the rows a HarvNet-style figure
// would plot.
func FormatMultiExit(r *MultiExitResult) string {
	out := "multi-exit gesture network (3 exits):\n"
	for k := range r.ExitMACs {
		out += fmt.Sprintf("  exit %d: %8d MACs, accuracy %.3f\n", k, r.ExitMACs[k], r.ExitAccs[k])
	}
	out += "  budget sweep (deepest affordable exit):\n"
	for _, p := range r.Curve {
		if p.Exit < 0 {
			out += fmt.Sprintf("    budget %7.0f µJ → no exit affordable\n", p.BudgetJ*1e6)
			continue
		}
		out += fmt.Sprintf("    budget %7.0f µJ → exit %d, accuracy %.3f (spends %.0f µJ)\n",
			p.BudgetJ*1e6, p.Exit, p.Accuracy, p.EnergyJ*1e6)
	}
	out += fmt.Sprintf("  confidence routing τ=0.9: accuracy %.3f, %2.0f%% of samples exit early\n",
		r.Confident, r.ShareEarly*100)
	return out
}
