// Package harvnet implements the HarvNet baseline [5] objective as described
// in the paper's §IV-B: accuracy and energy are combined into the single
// ratio max A/E, which needs no weight tuning but cannot steer along the
// Pareto frontier. Like μNAS it searches the architecture only and uses the
// total-MACs energy model; it is included for the ablation comparisons.
//
// The evolution loop is the shared internal/evo engine, so the A/E baseline
// runs with the same parallel evaluation, warm-start lineage, optional
// evaluation cache, and telemetry as eNAS.
package harvnet

import (
	"math"
	"math/rand"

	"solarml/internal/evo"
	"solarml/internal/nas"
	"solarml/internal/obs"
)

// Config holds the HarvNet settings, matched to the eNAS run.
type Config struct {
	Population  int
	SampleSize  int
	Cycles      int
	Seed        int64
	Constraints nas.Constraints
	// Workers sets the evaluation parallelism for the population fill
	// (≤1 means sequential); results merge in generation order.
	Workers int
	// Obs receives harvnet.search/phase1/phase2 spans and one
	// harvnet.cycle event per cycle; Metrics accumulates harvnet.*.
	Obs     *obs.Recorder
	Metrics *obs.Registry
	// Cache enables the engine's fingerprint-keyed evaluation memo; the
	// Outcome is identical with it on or off.
	Cache bool
}

// DefaultConfig returns settings matched to the paper's evaluation.
func DefaultConfig(task nas.Task) Config {
	return Config{
		Population:  50,
		SampleSize:  20,
		Cycles:      150,
		Constraints: nas.DefaultConstraints(task),
	}
}

// Entry pairs a candidate with its evaluation.
type Entry = evo.Entry

// Outcome is the result of one HarvNet run.
type Outcome struct {
	// Best maximizes A/E among feasible candidates.
	Best Entry
	// History holds every evaluated candidate.
	History     []Entry
	Evaluations int
}

// ratio is the HarvNet objective.
func ratio(e *Entry) float64 {
	if e.Res.EnergyJ <= 0 {
		return 0
	}
	return e.Res.Accuracy / e.Res.EnergyJ
}

// policy adapts the HarvNet objective to the shared engine: fixed-sensing
// candidates, A/E scoring (infeasible candidates never win tournaments),
// and best-ratio reporting.
type policy struct {
	evo.NASGenome
	evo.StatelessState
	cfg    Config
	space  *nas.Space
	fill   func(*rand.Rand) *nas.Candidate
	scorer func(*Entry) float64 // CycleScore's scorer, built once per run
}

// NewPolicy returns the HarvNet-objective search as an evo.Policy for the
// engine's island/checkpoint driver path (evo.RunIslands), which constructs
// one policy instance per island.
func NewPolicy(space *nas.Space, sensing *nas.Candidate, cfg Config) evo.Policy {
	return newPolicy(space, sensing, cfg)
}

func newPolicy(space *nas.Space, sensing *nas.Candidate, cfg Config) *policy {
	p := &policy{cfg: cfg, space: space, fill: evo.FixedSensing(space, sensing)}
	p.scorer = func(e *Entry) float64 {
		if !p.cfg.Constraints.Feasible(e.Res.Accuracy) {
			return math.Inf(-1) // infeasible candidates never win tournaments
		}
		return ratio(e)
	}
	return p
}

func (p *policy) Prefix() string { return "harvnet" }

func (p *policy) Fill(rng *rand.Rand) *nas.Candidate { return p.fill(rng) }

func (p *policy) SearchAttrs() []obs.Attr { return nil }

func (p *policy) Init([]Entry, float64, float64) {}

func (p *policy) CycleScore(*rand.Rand, int) func(*Entry) float64 { return p.scorer }

func (p *policy) GridCycle(int) bool { return false }

func (p *policy) Neighbors(*nas.Candidate) []*nas.Candidate { return nil }

func (p *policy) Mutate(rng *rand.Rand, parent *nas.Candidate) *nas.Candidate {
	return p.space.MutateArch(rng, parent)
}

func (p *policy) Accepted(Entry) {}

func (p *policy) Report(history []Entry) (Entry, []obs.Attr) {
	var best Entry
	for i := range history {
		e := &history[i]
		if !p.cfg.Constraints.Feasible(e.Res.Accuracy) {
			continue
		}
		if best.Cand == nil || ratio(e) > ratio(&best) {
			best = *e
		}
	}
	if best.Cand == nil {
		for i := range history {
			if e := &history[i]; best.Cand == nil || ratio(e) > ratio(&best) {
				best = *e
			}
		}
	}
	return best, []obs.Attr{
		obs.F64("best_acc", best.Res.Accuracy),
		obs.F64("best_energy_j", best.Res.EnergyJ),
		obs.F64("best_ratio", ratio(&best)),
	}
}

// Search runs the HarvNet-style evolution from a fixed sensing
// configuration.
func Search(space *nas.Space, sensing *nas.Candidate, eval nas.Evaluator, cfg Config) (*Outcome, error) {
	pol := newPolicy(space, sensing, cfg)
	out, err := evo.Run(pol, eval, evo.Config{
		Population: cfg.Population, SampleSize: cfg.SampleSize, Cycles: cfg.Cycles,
		Seed: cfg.Seed, Constraints: cfg.Constraints, Workers: cfg.Workers,
		Obs: cfg.Obs, Metrics: cfg.Metrics, Cache: cfg.Cache,
	})
	if err != nil {
		return nil, err
	}
	return &Outcome{Best: out.Best, History: out.History, Evaluations: out.Evaluations}, nil
}
