package main

import (
	"fmt"
	"time"

	"solarml/internal/enas"
	"solarml/internal/nas"
	"solarml/internal/obs"
)

// searchCase is one seeded eNAS search.
type searchCase struct {
	space *nas.Space
	cfg   enas.Config
}

// searchStream yields the seeded searches of the workload: search i of the
// stream is a pure function of the seed and i. Each search is
// distinct, because a run's cost must average over many search
// trajectories to be the same from seed to seed. Search i explores
// spaces[i mod len(spaces)], and within a round λ is stratified, one draw
// per equal slice of [0, 1) for each space: λ decides how large the
// searched models grow, so stratifying gives every round the same mix of
// small and large models.
type searchStream struct {
	seed   int64
	round  int // a multiple of len(spaces)
	spaces []*nas.Space
}

func (st searchStream) at(i int) searchCase {
	rng := inputRand(st.seed, i)
	k := len(st.spaces)
	space := st.spaces[i%k]
	strata := st.round / k
	cfg := enas.DefaultConfig(space.Task, (float64(i%st.round/k)+rng.Float64())/float64(strata))
	cfg.Cycles = searchCycles
	cfg.Seed = rng.Int63()
	return searchCase{space: space, cfg: cfg}
}

// stepClock times the evaluation steps of serial searches: each step runs
// from the end of the previous evaluation to the end of this one, so it
// holds the engine's tournament, mutation, and constraint checks as well
// as the evaluator call. Each step is one sample of one evaluation.
type stepClock struct {
	inner       nas.Evaluator
	start, last time.Time
	steps       []sample
}

func (c *stepClock) Evaluate(cand *nas.Candidate) (nas.Result, error) {
	res, err := c.inner.Evaluate(cand)
	now := time.Now()
	c.steps = append(c.steps, sample{now.Sub(c.start), now.Sub(c.last).Seconds(), 1})
	c.last = now
	return res, err
}

// outcomeKey is the part of a search outcome the replay check compares.
type outcomeKey struct {
	best        uint64
	evaluations int
	acc, energy float64
}

func keyOf(out *enas.Outcome) outcomeKey {
	return outcomeKey{out.Best.Cand.Fingerprint(), out.Evaluations, out.Best.Res.Accuracy, out.Best.Res.EnergyJ}
}

// searchBench runs one eNAS search per operation.
type searchBench struct {
	stream searchStream
	evals  map[nas.Task]nas.Evaluator // the surrogate of each task
	clock  stepClock

	trace bool
	reg   *obs.Registry // trace runs: engine counters and evaluator time
}

// search runs one search and checks what it returns. The measured searches
// run serially on the step clock and, in trace runs, report into the
// registry; replays run bare on the engine's parallel evaluation path.
func (s *searchBench) search(c searchCase, replay bool) (*enas.Outcome, error) {
	cfg := c.cfg
	var eval nas.Evaluator = s.evals[c.space.Task]
	if replay {
		cfg.Workers = 2
	} else {
		cfg.Metrics = s.reg
		s.clock.inner, s.clock.last = eval, time.Now()
		eval = &s.clock
	}
	out, err := enas.Search(c.space, eval, cfg)
	if err != nil {
		return nil, err
	}
	best := out.Best.Cand
	switch {
	case best == nil:
		return nil, wrongf("no best candidate")
	case best.Validate() != nil:
		return nil, wrongf("best candidate invalid: %v", best.Validate())
	case cfg.Constraints.CheckStatic(best) != nil:
		return nil, wrongf("best candidate breaks constraints: %v", cfg.Constraints.CheckStatic(best))
	case out.Evaluations != len(out.History) || out.Evaluations < cfg.Population:
		return nil, wrongf("%d evaluations, %d history entries", out.Evaluations, len(out.History))
	case !(out.Best.Res.Accuracy >= 0 && out.Best.Res.Accuracy <= 1) || !(out.Best.Res.EnergyJ > 0):
		return nil, wrongf("best scored acc %v energy %v", out.Best.Res.Accuracy, out.Best.Res.EnergyJ)
	}
	return out, nil
}

func (s *searchBench) measure(window time.Duration) tally {
	var got []outcomeKey
	op := func(i int) (int, error) {
		out, err := s.search(s.stream.at(i), false)
		if err != nil {
			got = append(got, outcomeKey{})
			return 0, fmt.Errorf("search %d: %w", i, err)
		}
		got = append(got, keyOf(out))
		return out.Evaluations, nil
	}
	warm := warmUp(window, op)
	got = nil
	s.clock.steps, s.clock.start = nil, time.Now()
	if s.trace {
		s.reg = obs.NewRegistry()
	}
	t := closedLoop(window, s.stream.round, op)
	if s.trace {
		t.layers = s.layers(t)
	}
	t.addCounts(warm)
	t.samples = s.clock.steps
	// Replay the first and last searches on the parallel evaluation path,
	// which must reproduce the serial outcomes exactly.
	for _, i := range []int{0, len(got) - 1} {
		out, err := s.search(s.stream.at(i), true)
		if err == nil && keyOf(out) != got[i] {
			err = wrongf("search %d: replay gave %+v, measured %+v", i, keyOf(out), got[i])
		}
		t.attempted++
		t.count(err)
	}
	return t
}

// layers splits the searches' wall time into the evaluator and the
// evolution engine around it, which includes the static constraint checks.
func (s *searchBench) layers(t tally) map[string]float64 {
	snap := s.reg.Snapshot()
	var wall float64
	for _, op := range t.samples {
		wall += op.lat
	}
	eval := snap.Histograms["enas.eval_seconds"].Sum
	evals := float64(snap.Counters["enas.evaluations"])
	rejects := float64(snap.Counters["enas.constraint_rejects"])
	return map[string]float64{
		"evo_engine_pct":       pct(wall-eval, wall),
		"nas_evaluator_pct":    pct(eval, wall),
		"evo_evals_per_search": evals / float64(t.attempted),
		"evo_reject_pct":       pct(rejects, evals+rejects),
	}
}

func (s *searchBench) close() {}

// searchCycles is each search's length rather than the paper's 150:
// search cost follows the drift of the searched model sizes, and only many
// short searches per run make a run's cost the same from seed to seed.
const searchCycles = 30

// surrogateSearch runs eNAS searches at the paper's population (50),
// tournament sample (20), and grid-mutation period (R = 20) over both
// tasks, scored by the surrogate evaluator over energy models calibrated at
// set-up, as cmd/enas-search does, without the evaluation memo. The
// calibration campaign is the system's, not an input: its seed is fixed,
// because every search of a run shares the fitted models.
func surrogateSearch(seed int64, trace bool) (func() (bench, error), error) {
	spaces := []*nas.Space{nas.GestureSpace(), nas.KWSSpace()}
	stream := searchStream{seed: seed, round: 8, spaces: spaces}
	return func() (bench, error) {
		s := &searchBench{stream: stream, evals: make(map[nas.Task]nas.Evaluator), trace: trace}
		for _, space := range spaces {
			fitted, err := nas.CalibrateEnergy(space, 300, true, true, 1)
			if err != nil {
				return nil, fmt.Errorf("calibrate %s energy: %w", space.Task, err)
			}
			s.evals[space.Task] = nas.NewSurrogateEvaluator(fitted)
		}
		return s, nil
	}, nil
}
