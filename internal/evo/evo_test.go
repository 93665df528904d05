package evo_test

import (
	"math/rand"
	"strings"
	"testing"

	"solarml/internal/bytecodec"
	"solarml/internal/evo"
	"solarml/internal/nas"
	"solarml/internal/obs"
)

// stubPolicy drives the engine with the gesture space and an accuracy
// objective; fill can be overridden to exercise the reject budget.
type stubPolicy struct {
	evo.NASGenome
	evo.StatelessState
	space *nas.Space
	fill  func(*rand.Rand) *nas.Candidate
}

func (p *stubPolicy) Prefix() string { return "stub" }

func (p *stubPolicy) Fill(rng *rand.Rand) *nas.Candidate {
	if p.fill != nil {
		return p.fill(rng)
	}
	return p.space.RandomCandidate(rng)
}

func (p *stubPolicy) SearchAttrs() []obs.Attr { return nil }

func (p *stubPolicy) Init([]evo.Entry, float64, float64) {}

func (p *stubPolicy) CycleScore(*rand.Rand, int) func(evo.Entry) float64 {
	return func(e evo.Entry) float64 { return e.Res.Accuracy }
}

func (p *stubPolicy) GridCycle(int) bool { return false }

func (p *stubPolicy) Neighbors(*nas.Candidate) []*nas.Candidate { return nil }

func (p *stubPolicy) Mutate(rng *rand.Rand, parent *nas.Candidate) *nas.Candidate {
	return p.space.MutateArch(rng, parent)
}

func (p *stubPolicy) Accepted(evo.Entry) {}

func (p *stubPolicy) Report(history []evo.Entry) (evo.Entry, []obs.Attr) {
	var best evo.Entry
	for _, e := range history {
		if best.Cand == nil || e.Res.Accuracy > best.Res.Accuracy {
			best = e
		}
	}
	return best, nil
}

func stubConfig() evo.Config {
	return evo.Config{
		Population: 8, SampleSize: 3, Cycles: 10, Seed: 1,
		Constraints: nas.DefaultConstraints(nas.TaskGesture),
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	pol := &stubPolicy{space: nas.GestureSpace()}
	eval := nas.NewSurrogateEvaluator(nas.NewTruthEnergy())
	for _, cfg := range []evo.Config{
		{Population: 1, SampleSize: 1},
		{Population: 10, SampleSize: 0},
		{Population: 10, SampleSize: 11},
	} {
		if _, err := evo.Run(pol, eval, cfg); err == nil {
			t.Errorf("Run(%d/%d) succeeded, want invalid-config error", cfg.Population, cfg.SampleSize)
		}
	}
}

// TestRunFillBudget pins the unified retry budget: a policy that can never
// produce a candidate must fail with the engine's single error wording, and
// every rejected draw must land in the shared evo.fill_rejects counter.
func TestRunFillBudget(t *testing.T) {
	pol := &stubPolicy{
		space: nas.GestureSpace(),
		fill:  func(*rand.Rand) *nas.Candidate { return nil },
	}
	eval := nas.NewSurrogateEvaluator(nas.NewTruthEnergy())
	reg := obs.NewRegistry()
	cfg := stubConfig()
	cfg.Metrics = reg
	_, err := evo.Run(pol, eval, cfg)
	if err == nil {
		t.Fatal("Run succeeded with a fill source that always rejects")
	}
	if !strings.Contains(err.Error(), "cannot fill population") {
		t.Fatalf("error = %q, want the engine's fill-budget wording", err)
	}
	if got := reg.Counter("evo.fill_rejects").Value(); got == 0 {
		t.Fatal("evo.fill_rejects counter not incremented")
	}
}

// TestRunCacheMetrics checks the cache counters account for every cold-path
// lookup: hits + misses covers at least one lookup per recorded evaluation,
// and aging evolution on a small space produces actual hits.
func TestRunCacheMetrics(t *testing.T) {
	pol := &stubPolicy{space: nas.GestureSpace()}
	eval := nas.NewSurrogateEvaluator(nas.NewTruthEnergy())
	reg := obs.NewRegistry()
	cfg := stubConfig()
	cfg.Cycles = 40
	cfg.Metrics = reg
	cfg.Cache = true
	out, err := evo.Run(pol, eval, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	hits := reg.Counter("evo.cache_hits").Value()
	misses := reg.Counter("evo.cache_misses").Value()
	if hits+misses < int64(out.Evaluations) {
		t.Errorf("cache lookups %d < evaluations %d", hits+misses, out.Evaluations)
	}
	if misses == 0 {
		t.Error("cache recorded no misses; every evaluation must miss once")
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		n := 17
		seen := make([]int64, n)
		evo.ForEach(workers, n, func(i int) { seen[i]++ })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// gridStub takes a sensing grid step every cycle, so every cycle runs a
// parallel batch whose workers share one lineage parent.
type gridStub struct{ stubPolicy }

func (p *gridStub) GridCycle(int) bool { return true }

func (p *gridStub) Neighbors(parent *nas.Candidate) []*nas.Candidate {
	return p.space.GridNeighbors(parent)
}

// lineageEval is a warm-starting evaluator whose results depend on the
// parent's fingerprint, read on the worker goroutine. Neither method
// rebinds the candidates it is handed.
type lineageEval struct{}

func (lineageEval) Evaluate(c *nas.Candidate) (nas.Result, error) {
	return lineageResult(c.Fingerprint()), nil
}

func (lineageEval) EvaluateFrom(child, parent *nas.Candidate) (nas.Result, error) {
	return lineageResult(child.Fingerprint() ^ parent.Fingerprint()>>1), nil
}

func lineageResult(h uint64) nas.Result {
	return nas.Result{Accuracy: 0.5 + float64(h%500)/1000, EnergyJ: 1e-3 + float64(h%997)*1e-6}
}

// TestGridBatchSharesParentAcrossWorkers runs grid batches on four workers
// that all read one parent's fingerprint, over a population in which every
// other member is unbound (decoded, never validated, as a restored
// checkpoint holds it), and requires the outcome of a sequential run. Run
// it under -race: reading a parent must never write it.
func TestGridBatchSharesParentAcrossWorkers(t *testing.T) {
	run := func(workers int) *evo.Outcome {
		space := nas.GestureSpace()
		fills := 0
		pol := &gridStub{stubPolicy{space: space, fill: func(rng *rand.Rand) *nas.Candidate {
			c := space.RandomCandidate(rng)
			if fills++; fills%2 == 0 {
				dec, err := nas.ReadCandidate(bytecodec.NewReader(nas.AppendCandidate(nil, c)))
				if err != nil {
					t.Fatal(err)
				}
				c = dec
			}
			return c
		}}}
		cfg := stubConfig()
		cfg.Population, cfg.SampleSize, cfg.Cycles, cfg.Workers = 12, 4, 12, workers
		out, err := evo.Run(pol, lineageEval{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	seq, par := run(1), run(4)
	if seq.Evaluations != par.Evaluations || seq.Best.Res != par.Best.Res ||
		seq.Best.Cand.Fingerprint() != par.Best.Cand.Fingerprint() {
		t.Fatalf("4 workers: %d evaluations, best %#016x %+v; sequential: %d, %#016x %+v",
			par.Evaluations, par.Best.Cand.Fingerprint(), par.Best.Res,
			seq.Evaluations, seq.Best.Cand.Fingerprint(), seq.Best.Res)
	}
}
