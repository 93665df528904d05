// Package enas implements the paper's eNAS search (Algorithm 1): a
// two-phase, aging-evolution hyperparameter search that jointly optimizes
// sensing parameters and network architecture.
//
// Phase 1 fills the population with random candidates under the structural
// constraints, establishing the energy normalization bounds E_min and E_max.
// Phase 2 runs regularized (aging) evolution on the objective
//
//	max  A − λ·(E − E_min)/(E_max − E_min)
//
// where λ ∈ [0,1] trades accuracy (λ=0) against energy (λ=1). Architecture
// morphisms run every cycle; every R-th cycle the sensing parameters take a
// local grid-search step instead (GRIDMUTATE), reflecting the observation
// that small sensing changes matter only once the model has adapted.
//
// The evolution mechanics — population fill, tournament, aging replacement,
// deterministic parallel evaluation, warm-start lineage, the optional
// evaluation cache — live in internal/evo; this package contributes the
// joint sensing+architecture candidate source, the λ-objective, and the
// GRIDMUTATE schedule as an evo.Policy.
package enas

import (
	"fmt"
	"math"
	"math/rand"

	"solarml/internal/evo"
	"solarml/internal/nas"
	"solarml/internal/obs"
)

// Config holds the Algorithm 1 settings (§V-D: population 50, sample 20,
// 150 cycles, R = 20).
type Config struct {
	Lambda       float64
	Population   int
	SampleSize   int
	Cycles       int
	SensingEvery int
	Seed         int64
	Constraints  nas.Constraints
	// Workers sets the evaluation parallelism for Phase 1 and the grid
	// mutations (≤1 means sequential). Results are merged in generation
	// order, so the search stays deterministic for a given seed as long
	// as the evaluator itself is deterministic.
	Workers int
	// Objective optionally replaces the default scoring
	// A − λ·(E−E_min)/(E_max−E_min) used for parent selection and
	// best-candidate reporting — the hook behind the §IV-B objective
	// comparison (random scalarization, HarvNet's A/E). Closures may hold
	// their own seeded randomness.
	Objective func(acc, energyJ, eMin, eMax float64) float64
	// Obs, when set, receives the search telemetry: an enas.search span
	// wrapping enas.phase1/enas.phase2 sub-spans, one enas.cycle event per
	// Phase 2 cycle (best objective/accuracy/energy, the E_min/E_max
	// normalization bounds, population churn), and one enas.eval_batch
	// span per parallel evaluation batch with its worker-pool utilization.
	// A nil recorder costs nothing on the hot path, and telemetry never
	// consumes random state, so a seeded search returns a byte-identical
	// Best with recording on or off.
	Obs *obs.Recorder
	// Metrics, when set, accumulates search counters (evaluations,
	// constraint rejects, evaluator errors, accepted/failed children) and
	// timing/utilization histograms.
	Metrics *obs.Registry
	// Cache enables the engine's fingerprint-keyed evaluation memo: repeat
	// visits to a configuration skip the evaluator. The Outcome is
	// identical with the cache on or off (hits replay the memoized result
	// and still count as evaluations); savings appear in wall-clock and
	// the evo.cache_hits / evo.cache_misses counters. Warm-start
	// evaluations bypass the cache.
	Cache bool
}

// DefaultConfig returns the paper's evaluation settings for a task.
func DefaultConfig(task nas.Task, lambda float64) Config {
	return Config{
		Lambda:       lambda,
		Population:   50,
		SampleSize:   20,
		Cycles:       150,
		SensingEvery: 20,
		Constraints:  nas.DefaultConstraints(task),
	}
}

// Entry pairs a candidate with its evaluation.
type Entry = evo.Entry

// Outcome is the result of one search run.
type Outcome struct {
	// Best is the best feasible candidate found (by objective, subject to
	// the error cap).
	Best Entry
	// History holds every evaluated candidate in evaluation order.
	History []Entry
	// EMin and EMax are the Phase 1 energy normalization bounds.
	EMin, EMax float64
	// Evaluations counts evaluator calls.
	Evaluations int
}

// objective scores an entry under the normalized energy trade-off.
func objective(e *Entry, lambda, eMin, eMax float64) float64 {
	span := eMax - eMin
	if span <= 0 {
		span = 1
	}
	return e.Res.Accuracy - lambda*(e.Res.EnergyJ-eMin)/span
}

// score evaluates an entry under the configured objective.
func (cfg *Config) score(e *Entry, eMin, eMax float64) float64 {
	if cfg.Objective != nil {
		return cfg.Objective(e.Res.Accuracy, e.Res.EnergyJ, eMin, eMax)
	}
	return objective(e, cfg.Lambda, eMin, eMax)
}

// policy adapts Algorithm 1 to the shared engine: joint-space candidates,
// the λ-objective with a soft infeasibility penalty, GRIDMUTATE every R
// cycles, and best-objective reporting.
type policy struct {
	evo.NASGenome
	evo.StatelessState
	cfg        Config
	space      *nas.Space
	eMin, eMax float64
	scorer     func(*Entry) float64 // CycleScore's scorer, built once per run
}

// newPolicy builds the policy and its tournament scorer, which soft-
// penalizes infeasible entries during parent selection so evolution can
// escape an infeasible region but never prefers it. The scorer consumes no
// randomness, keeping the seeded stream identical to the pre-engine
// implementation.
func newPolicy(space *nas.Space, cfg Config) *policy {
	p := &policy{cfg: cfg, space: space}
	p.scorer = func(e *Entry) float64 {
		s := p.cfg.score(e, p.eMin, p.eMax)
		if !p.cfg.Constraints.Feasible(e.Res.Accuracy) {
			s -= 1
		}
		return s
	}
	return p
}

// NewPolicy returns the eNAS search as an evo.Policy for the engine's
// island/checkpoint driver path (evo.RunIslands), which constructs one
// policy instance per island. Search remains the single-shard entry point.
func NewPolicy(space *nas.Space, cfg Config) (evo.Policy, error) {
	if cfg.Lambda < 0 || cfg.Lambda > 1 {
		return nil, fmt.Errorf("enas: lambda %v outside [0,1]", cfg.Lambda)
	}
	if cfg.SensingEvery <= 0 {
		cfg.SensingEvery = 20
	}
	return newPolicy(space, cfg), nil
}

func (p *policy) Prefix() string { return "enas" }

func (p *policy) Fill(rng *rand.Rand) *nas.Candidate { return p.space.RandomCandidate(rng) }

func (p *policy) SearchAttrs() []obs.Attr {
	return []obs.Attr{
		obs.F64("lambda", p.cfg.Lambda),
		obs.Int("sensing_every", p.cfg.SensingEvery),
	}
}

func (p *policy) Init(_ []Entry, eMin, eMax float64) { p.eMin, p.eMax = eMin, eMax }

// CycleScore returns the run's scorer (see newPolicy); it reads the bounds
// Init set.
func (p *policy) CycleScore(*rand.Rand, int) func(*Entry) float64 { return p.scorer }

func (p *policy) GridCycle(cycle int) bool { return cycle%p.cfg.SensingEvery == 0 }

func (p *policy) Neighbors(parent *nas.Candidate) []*nas.Candidate {
	return p.space.GridNeighbors(parent)
}

func (p *policy) Mutate(rng *rand.Rand, parent *nas.Candidate) *nas.Candidate {
	return p.space.MutateArch(rng, parent)
}

func (p *policy) Accepted(Entry) {}

func (p *policy) Report(history []Entry) (Entry, []obs.Attr) {
	best := bestFeasible(history, &p.cfg, p.eMin, p.eMax)
	return best, []obs.Attr{
		obs.F64("best_acc", best.Res.Accuracy),
		obs.F64("best_energy_j", best.Res.EnergyJ),
		obs.F64("objective", p.cfg.score(&best, p.eMin, p.eMax)),
		obs.F64("e_min_j", p.eMin),
		obs.F64("e_max_j", p.eMax),
	}
}

// Search runs Algorithm 1.
func Search(space *nas.Space, eval nas.Evaluator, cfg Config) (*Outcome, error) {
	if cfg.Population < 2 || cfg.SampleSize < 1 || cfg.SampleSize > cfg.Population {
		return nil, fmt.Errorf("enas: invalid population/sample (%d/%d)", cfg.Population, cfg.SampleSize)
	}
	if cfg.Lambda < 0 || cfg.Lambda > 1 {
		return nil, fmt.Errorf("enas: lambda %v outside [0,1]", cfg.Lambda)
	}
	if cfg.SensingEvery <= 0 {
		cfg.SensingEvery = 20
	}
	pol := newPolicy(space, cfg)

	out, err := evo.Run(pol, eval, evo.Config{
		Population: cfg.Population, SampleSize: cfg.SampleSize, Cycles: cfg.Cycles,
		Seed: cfg.Seed, Constraints: cfg.Constraints, Workers: cfg.Workers,
		Obs: cfg.Obs, Metrics: cfg.Metrics, Cache: cfg.Cache,
	})
	if err != nil {
		return nil, err
	}
	return &Outcome{
		Best: out.Best, History: out.History,
		EMin: out.EMin, EMax: out.EMax, Evaluations: out.Evaluations,
	}, nil
}

// bestFeasible returns the best entry of the history under the objective,
// honouring the accuracy cap (falling back to the best overall if nothing
// is feasible yet).
func bestFeasible(history []Entry, cfg *Config, eMin, eMax float64) Entry {
	var best Entry
	bestObj := math.Inf(-1)
	for i := range history {
		e := &history[i]
		if !cfg.Constraints.Feasible(e.Res.Accuracy) {
			continue
		}
		if o := cfg.score(e, eMin, eMax); o > bestObj {
			bestObj, best = o, *e
		}
	}
	if best.Cand == nil {
		for i := range history {
			if o := cfg.score(&history[i], eMin, eMax); o > bestObj {
				bestObj, best = o, history[i]
			}
		}
	}
	return best
}
