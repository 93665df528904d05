// Package munas implements the μNAS baseline [4] as used in the paper's
// comparison: aging evolution over the architecture only, with the sensing
// configuration fixed per run (μNAS has no sensing hyperparameters in its
// search space), a single total-MACs energy model, and random scalarization
// to combine the accuracy and energy objectives — a fresh weight vector is
// drawn each cycle, which explores the Pareto frontier but gives the user
// no direct control over the trade-off.
//
// The evolution loop is the shared internal/evo engine, so μNAS runs with
// the same deterministic parallel evaluation, warm-start lineage, optional
// evaluation cache, and telemetry as eNAS — keeping the Fig 10 comparison
// an objective comparison, not a tooling one.
package munas

import (
	"fmt"
	"math/rand"

	"solarml/internal/bytecodec"
	"solarml/internal/evo"
	"solarml/internal/nas"
	"solarml/internal/obs"
)

// Config holds the μNAS settings, matched to the eNAS run for fairness
// (§V-D: population 50, sample 20, 150 cycles).
type Config struct {
	Population  int
	SampleSize  int
	Cycles      int
	Seed        int64
	Constraints nas.Constraints
	// Workers sets the evaluation parallelism for the population fill
	// (≤1 means sequential); results merge in generation order, so the
	// search stays deterministic for a given seed.
	Workers int
	// Obs receives munas.search/phase1/phase2 spans and one munas.cycle
	// event per cycle; Metrics accumulates the munas.* counters.
	Obs     *obs.Recorder
	Metrics *obs.Registry
	// Cache enables the engine's fingerprint-keyed evaluation memo; the
	// Outcome is identical with it on or off.
	Cache bool
}

// DefaultConfig returns the paper's evaluation settings.
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

// Outcome is the result of one μNAS run.
type Outcome struct {
	// BestAccuracy is the feasible candidate with the highest accuracy
	// (μNAS's reporting convention).
	BestAccuracy Entry
	// History holds every evaluated candidate.
	History []Entry
	// Evaluations counts evaluator calls.
	Evaluations int
}

// policy adapts μNAS to the shared engine: fixed-sensing candidates,
// random-scalarization scoring against a running energy scale, and
// best-accuracy reporting.
type policy struct {
	evo.NASGenome
	cfg   Config
	space *nas.Space
	fill  func(*rand.Rand) *nas.Candidate
	eMax  float64

	// The cycle's scalarization: CycleScore draws the weight w and fixes
	// the energy scale, and scorer, built once per run, reads both.
	w, scale float64
	scorer   func(*Entry) float64
}

// NewPolicy returns the μNAS search as an evo.Policy for the engine's
// island/checkpoint driver path (evo.RunIslands), which constructs one
// policy instance per island.
func NewPolicy(space *nas.Space, sensing *nas.Candidate, cfg Config) evo.Policy {
	return newPolicy(space, sensing, cfg)
}

func newPolicy(space *nas.Space, sensing *nas.Candidate, cfg Config) *policy {
	p := &policy{cfg: cfg, space: space, fill: evo.FixedSensing(space, sensing)}
	p.scorer = func(e *Entry) float64 {
		s := p.w*e.Res.Accuracy - (1-p.w)*e.Res.EnergyJ/p.scale
		if !p.cfg.Constraints.Feasible(e.Res.Accuracy) {
			s -= 1
		}
		return s
	}
	return p
}

// MarshalState checkpoints the running scalarization energy scale — the one
// piece of μNAS state Init cannot re-derive, since Accepted may have raised
// it past the fill bounds.
func (p *policy) MarshalState() []byte { return bytecodec.AppendF64(nil, p.eMax) }

// UnmarshalState restores the running energy scale; the engine calls it
// after Init on resume.
func (p *policy) UnmarshalState(data []byte) error {
	r := bytecodec.NewReader(data)
	v := r.F64()
	if err := r.Err(); err != nil {
		return err
	}
	if r.Len() != 0 {
		return fmt.Errorf("munas: %d trailing state bytes", r.Len())
	}
	p.eMax = v
	return nil
}

func (p *policy) Prefix() string { return "munas" }

func (p *policy) Fill(rng *rand.Rand) *nas.Candidate { return p.fill(rng) }

func (p *policy) SearchAttrs() []obs.Attr { return nil }

func (p *policy) Init(_ []Entry, _, eMax float64) { p.eMax = eMax }

// CycleScore draws the cycle's fresh scalarization weight — the one place
// μNAS consumes per-cycle randomness — and normalizes energy by the running
// scale established so far.
func (p *policy) CycleScore(rng *rand.Rand, _ int) func(*Entry) float64 {
	p.w, p.scale = rng.Float64(), p.eMax
	return p.scorer
}

func (p *policy) GridCycle(int) bool { return false }

func (p *policy) Neighbors(*nas.Candidate) []*nas.Candidate { return nil }

func (p *policy) Mutate(rng *rand.Rand, parent *nas.Candidate) *nas.Candidate {
	return p.space.MutateArch(rng, parent)
}

// Accepted keeps the scalarization's energy scale tracking the population.
func (p *policy) Accepted(e Entry) {
	if e.Res.EnergyJ > p.eMax {
		p.eMax = e.Res.EnergyJ
	}
}

func (p *policy) Report(history []Entry) (Entry, []obs.Attr) {
	var best Entry
	for _, e := range history {
		if !p.cfg.Constraints.Feasible(e.Res.Accuracy) {
			continue
		}
		if best.Cand == nil || e.Res.Accuracy > best.Res.Accuracy {
			best = e
		}
	}
	if best.Cand == nil {
		// Nothing feasible: report the highest-accuracy attempt.
		for _, e := range history {
			if best.Cand == nil || e.Res.Accuracy > best.Res.Accuracy {
				best = e
			}
		}
	}
	return best, []obs.Attr{
		obs.F64("best_acc", best.Res.Accuracy),
		obs.F64("best_energy_j", best.Res.EnergyJ),
	}
}

// Search runs μNAS from a fixed sensing configuration: `sensing` provides
// the sensing half (and task); only the architecture evolves.
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
	return &Outcome{BestAccuracy: out.Best, History: out.History, Evaluations: out.Evaluations}, nil
}
