package evo

import (
	"fmt"
	"math"
	"sync"
	"time"

	"solarml/internal/nas"
	"solarml/internal/obs"
)

// engine is the stepwise form of one aging-evolution shard. Run drives it
// fill → step×Cycles → finish in one call; the island and checkpoint layers
// drive the same methods with barriers (and snapshots) between steps. All
// mutable search state lives here, which is what makes a shard serializable:
// population, history, bounds, counters, the policy's per-run state, and the
// snapshotable rng are the whole story — evaluation, telemetry, and the
// memo hold no state the Outcome depends on.
type engine struct {
	pol    Policy
	eval   nas.Evaluator
	cfg    Config
	pre    string
	island int // island index, or -1 for single-shard runs

	*scratch // the rng and the reused buffers
	out      *Outcome
	// population is the aging window: the oldest entry first. It slides
	// down popBuf, a backing array of at least twice the population size,
	// and is copied back to popBuf's start only when it reaches the end,
	// so aging allocates nothing.
	population []Entry
	accepted   int
	cycle      int // completed phase-2 cycles

	memo  *memoCache
	warm  nas.WarmStartEvaluator
	timed bool
	rec   *obs.Recorder

	search, phase2 obs.Span

	mEvals, mRejects, mErrors, mAccepted, mFailed, mFillRejects *obs.Counter
	hEval, hUtil                                                *obs.Histogram
}

// newEngine validates the config and builds a shard ready to fill. shared,
// when non-nil, is a memo shared between islands; parent, when enabled,
// roots the shard's search span under the island layer's span.
func newEngine(pol Policy, eval nas.Evaluator, cfg Config, shared *memoCache, parent *obs.Span, island int) (*engine, error) {
	if cfg.Population < 2 || cfg.SampleSize < 1 || cfg.SampleSize > cfg.Population {
		return nil, fmt.Errorf("evo: invalid population/sample (%d/%d)", cfg.Population, cfg.SampleSize)
	}
	e := &engine{
		pol: pol, eval: eval, cfg: cfg, pre: pol.Prefix(), island: island,
		scratch: borrowScratch(cfg), out: &Outcome{History: make([]Entry, 0, historyCap(cfg))}, rec: cfg.Obs,
	}
	if m := cfg.Metrics; m != nil {
		e.mEvals = m.Counter(e.pre + ".evaluations")
		e.mRejects = m.Counter(e.pre + ".constraint_rejects")
		e.mErrors = m.Counter(e.pre + ".eval_errors")
		e.mAccepted = m.Counter(e.pre + ".children_accepted")
		e.mFailed = m.Counter(e.pre + ".cycles_without_child")
		e.mFillRejects = m.Counter("evo.fill_rejects")
		e.hEval = m.Histogram(e.pre+".eval_seconds", obs.TimeBuckets)
		e.hUtil = m.Histogram(e.pre+".worker_utilization", obs.RatioBuckets)
	}
	e.memo = shared
	if e.memo == nil && (cfg.Cache || cfg.Memo != nil) {
		e.memo = newMemoCache(cfg.Metrics.Counter("evo.cache_hits"), cfg.Metrics.Counter("evo.cache_misses"))
		e.memo.attach(cfg.Memo)
	}
	e.warm, _ = eval.(nas.WarmStartEvaluator)
	e.timed = e.rec.Enabled() || cfg.Metrics != nil
	underParent := parent != nil && parent.Enabled()
	if !underParent && !e.rec.Enabled() {
		return e, nil // the zero search span records nothing
	}
	attrs := append([]obs.Attr{
		obs.Int("population", cfg.Population), obs.Int("sample", cfg.SampleSize),
		obs.Int("cycles", cfg.Cycles), obs.Int64("seed", cfg.Seed),
		obs.Int("workers", cfg.Workers),
		obs.Bool("cache", e.memo != nil),
	}, pol.SearchAttrs()...)
	if island >= 0 {
		attrs = append(attrs, obs.Int("island", island))
	}
	if underParent {
		e.search = parent.Child(e.pre+".search", attrs...)
	} else {
		e.search = e.rec.StartSpan(e.pre+".search", attrs...)
	}
	return e, nil
}

// scratch is what an engine borrows for a search and hands back when the
// search ends, so back-to-back searches reuse it: the rng, whose 4.9 KB
// source is re-seeded rather than rebuilt, and the engine's buffers. It
// holds no candidate between searches.
type scratch struct {
	rng    *RNG
	popBuf []Entry          // backs the population window
	perm   []int            // tournament sampling buffer, reused every cycle
	got    []Entry          // evaluateAll's successes, reused every batch
	batch  []*nas.Candidate // fill's draws, reused every round
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// borrowScratch takes a scratch from the pool and sizes it for cfg. Its
// rng produces exactly NewRNG(cfg.Seed)'s stream.
func borrowScratch(cfg Config) *scratch {
	s := scratchPool.Get().(*scratch)
	if s.rng == nil {
		s.rng = NewRNG(cfg.Seed)
	} else {
		s.rng.reseed(cfg.Seed)
	}
	if len(s.popBuf) < 2*cfg.Population {
		s.popBuf = make([]Entry, 2*cfg.Population)
	}
	if cap(s.got) < cfg.Population {
		s.got = make([]Entry, 0, cfg.Population)
	}
	if cap(s.batch) < cfg.Population {
		s.batch = make([]*nas.Candidate, 0, cfg.Population)
	}
	return s
}

// release hands the engine's scratch back to the pool, cleared of every
// candidate. The engine must not step again.
func (e *engine) release() {
	s := e.scratch
	e.scratch, e.population = nil, nil
	clear(s.popBuf)
	clear(s.got[:cap(s.got)])
	clear(s.batch[:cap(s.batch)])
	scratchPool.Put(s)
}

// historyCap is the History capacity a run starts with: the filled
// population, one child per cycle, and half a child more per cycle for
// grid steps (eNAS at R = 20 averages 0.35), so a run of the paper's shape
// never regrows it.
func historyCap(cfg Config) int {
	return cfg.Population + cfg.Cycles + cfg.Cycles/2
}

// child opens a sub-span of the search span named <prefix>.<name>,
// building the name only when the search span records.
func (e *engine) child(name string) obs.Span {
	if !e.search.Enabled() {
		return obs.Span{}
	}
	return e.search.Child(e.pre + "." + name)
}

// evalOne scores a single candidate: static constraint check, memo lookup,
// then the evaluator — via EvaluateFrom when the lineage parent is known and
// the evaluator warm-starts (that path bypasses the memo in both directions:
// its result depends on the parent's weights, not just the fingerprint). On
// success it writes the entry to dst. It records no history; callers merge.
func (e *engine) evalOne(c, parent *nas.Candidate, timeIt bool, dst *Entry) bool {
	if c == nil {
		e.mRejects.Inc()
		return false
	}
	warmPath := e.warm != nil && parent != nil
	var fp uint64
	if e.memo != nil && !warmPath {
		// The memo lookup runs before the static check: results are only
		// memoized for candidates that passed it and evaluated cleanly, so
		// a hit skips the static constraint check as well.
		fp = c.Fingerprint()
		if res, ok := e.memo.get(fp); ok {
			*dst = Entry{Cand: c, Res: res}
			return true
		}
	}
	if !e.cfg.Constraints.Admits(c) {
		e.mRejects.Inc()
		return false
	}
	var t0 time.Time
	if timeIt {
		t0 = time.Now()
	}
	var err error
	if warmPath {
		dst.Res, err = e.warm.EvaluateFrom(c, parent)
	} else {
		dst.Res, err = e.eval.Evaluate(c)
	}
	if timeIt {
		e.hEval.Observe(time.Since(t0).Seconds())
	}
	if err != nil {
		e.mErrors.Inc()
		return false
	}
	dst.Cand = c
	if e.memo != nil && !warmPath {
		e.memo.put(fp, dst.Res)
	}
	return true
}

func (e *engine) record(ent *Entry) {
	e.out.Evaluations++
	e.mEvals.Inc()
	e.out.History = append(e.out.History, *ent)
}

// evaluate scores one candidate into dst and records it on success.
func (e *engine) evaluate(c, parent *nas.Candidate, dst *Entry) bool {
	ok := e.evalOne(c, parent, e.timed, dst)
	if ok {
		e.record(dst)
	}
	return ok
}

// evaluateAll scores a batch, in parallel when configured, recording history
// and returning successes in input order. span scopes the batch in the
// trace hierarchy; from, when non-nil, is the lineage parent of every
// candidate in the batch (the grid-mutation case: sensing neighbours keep
// the parent architecture), so warm-start weight inheritance applies on the
// parallel path exactly as it does sequentially. The returned slice is the
// engine's buffer: it is valid until the next evaluateAll.
func (e *engine) evaluateAll(span *obs.Span, cands []*nas.Candidate, from *nas.Candidate) []Entry {
	ok := e.got[:0]
	if e.cfg.Workers <= 1 || len(cands) <= 1 {
		var ent Entry
		for _, c := range cands {
			if e.evaluate(c, from, &ent) {
				ok = append(ok, ent)
			}
		}
		e.got = ok
		return ok
	}
	var batch obs.Span
	if span.Enabled() {
		batch = span.Child(e.pre+".eval_batch",
			obs.Int("n", len(cands)), obs.Int("workers", e.cfg.Workers))
	}
	var t0 time.Time
	if e.timed {
		t0 = time.Now()
	}
	type slot struct {
		e    Entry
		ok   bool
		busy time.Duration
	}
	slots := make([]slot, len(cands))
	ForEach(e.cfg.Workers, len(cands), func(i int) {
		var w0 time.Time
		if e.timed {
			w0 = time.Now()
		}
		slots[i].ok = e.evalOne(cands[i], from, false, &slots[i].e)
		if e.timed {
			slots[i].busy = time.Since(w0)
		}
	})
	for i := range slots {
		if s := &slots[i]; s.ok {
			e.record(&s.e)
			ok = append(ok, s.e)
		}
	}
	if e.timed {
		// Utilization: summed worker busy time over the pool's wall-clock
		// capacity for this batch.
		var busy time.Duration
		for _, s := range slots {
			busy += s.busy
			e.hEval.Observe(s.busy.Seconds())
		}
		util := 0.0
		if wall := time.Since(t0).Seconds() * float64(e.cfg.Workers); wall > 0 {
			util = busy.Seconds() / wall
		}
		e.hUtil.Observe(util)
		batch.End(obs.Int("ok", len(ok)), obs.F64("utilization", util))
	}
	e.got = ok
	return ok
}

// fill runs Phase 1: broad exploration. Each round draws only the
// still-missing candidates, so the rng stream is identical whether the
// batch is evaluated serially or in parallel. On success the policy is
// initialized with the population's energy bounds and the shard is ready
// to step.
func (e *engine) fill() error {
	phase1 := e.child("phase1")
	e.population = e.popBuf[:0]
	batch := e.batch[:0]
	for rounds := 0; len(e.population) < e.cfg.Population; rounds++ {
		if rounds > fillRounds {
			phase1.End(obs.Str("error", "cannot fill population"))
			e.search.End(obs.Str("error", "cannot fill population"))
			return fmt.Errorf("evo: %s cannot fill population of %d under constraints within %d rounds",
				e.pre, e.cfg.Population, fillRounds)
		}
		need := e.cfg.Population - len(e.population)
		batch = batch[:0]
		for range need {
			batch = append(batch, e.pol.Fill(e.rng.Rand))
		}
		got := e.evaluateAll(&phase1, batch, nil)
		e.mFillRejects.Add(int64(need - len(got)))
		e.population = append(e.population, got...)
	}
	e.out.EMin, e.out.EMax = math.Inf(1), math.Inf(-1)
	for _, ent := range e.population {
		if ent.Res.EnergyJ < e.out.EMin {
			e.out.EMin = ent.Res.EnergyJ
		}
		if ent.Res.EnergyJ > e.out.EMax {
			e.out.EMax = ent.Res.EnergyJ
		}
	}
	phase1.End(obs.Int("evaluations", e.out.Evaluations),
		obs.F64("e_min_j", e.out.EMin), obs.F64("e_max_j", e.out.EMax))
	if m := e.cfg.Metrics; m != nil {
		m.Gauge(e.pre + ".e_min_j").Set(e.out.EMin)
		m.Gauge(e.pre + ".e_max_j").Set(e.out.EMax)
	}
	e.pol.Init(e.population, e.out.EMin, e.out.EMax)
	e.startPhase2()
	return nil
}

func (e *engine) startPhase2() {
	e.phase2 = e.child("phase2")
}

// age applies the aging discipline: the oldest len(in) members leave and in
// joins as the youngest. The window slides down the backing array and is
// copied back to its start only when it reaches the end.
func (e *engine) age(in ...Entry) {
	pop := e.population[len(in):]
	if cap(pop)-len(pop) < len(in) {
		n := copy(e.popBuf, pop)
		clear(e.popBuf[n:]) // keep no departed entries alive
		pop = e.popBuf[:n]
	}
	e.population = append(pop, in...)
}

// step runs one aging-evolution cycle: tournament → mutate (or GRIDMUTATE)
// → evaluate → aging replacement.
func (e *engine) step() {
	e.cycle++
	cycle := e.cycle
	// The policy builds the cycle's scorer first (μNAS draws its
	// scalarization weight here), then one Perm-equivalent draw sequence
	// runs the tournament: each sampled index is scored exactly once.
	score := e.pol.CycleScore(e.rng.Rand, cycle)
	sampled := e.sample()
	best := sampled[0]
	bestScore := score(&e.population[best])
	for _, idx := range sampled[1:] {
		if s := score(&e.population[idx]); s > bestScore {
			best, bestScore = idx, s
		}
	}
	parent := e.population[best].Cand

	var child Entry
	ok := false
	grid := e.pol.GridCycle(cycle)
	if grid {
		// GRIDMUTATE: local grid search over the sensing neighbours.
		// Neighbours keep the parent architecture, so they inherit its
		// trained weights when the evaluator warm-starts.
		bestObj := math.Inf(-1)
		got := e.evaluateAll(&e.phase2, e.pol.Neighbors(parent), parent)
		for i := range got {
			if o := score(&got[i]); o > bestObj {
				bestObj, child, ok = o, got[i], true
			}
		}
	} else {
		// One architecture morphism, warm-started from the parent's
		// trained weights when the evaluator supports it.
		for tries := 0; tries < mutateTries && !ok; tries++ {
			ok = e.evaluate(e.pol.Mutate(e.rng.Rand, parent), parent, &child)
		}
	}
	if ok {
		// Aging: append the child, remove the oldest.
		e.age(child)
		e.accepted++
		e.mAccepted.Inc()
		e.pol.Accepted(child)
	} else {
		e.mFailed.Inc()
	}
	if e.rec.Enabled() {
		// One event per cycle: the policy's running best plus churn.
		_, attrs := e.pol.Report(e.out.History)
		e.phase2.Event(e.pre+".cycle", append([]obs.Attr{
			obs.Int("cycle", cycle),
			obs.Bool("grid", grid),
			obs.Bool("replaced", ok),
			obs.Int("evaluations", e.out.Evaluations),
			obs.Int("accepted", e.accepted),
		}, attrs...)...)
	}
}

// sample draws the tournament: the first SampleSize entries of a random
// permutation of the population indices. It replays rand.Perm's loop into
// the engine's buffer, so it consumes exactly the draws rand.Perm would —
// the seeded stream, every golden, and RNGState.Draws are unchanged — and
// allocates nothing once the buffer has grown to the population size.
func (e *engine) sample() []int {
	n := len(e.population)
	if cap(e.perm) < n {
		e.perm = make([]int, n)
	}
	m := e.perm[:n]
	for i := range m {
		j := e.rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m[:e.cfg.SampleSize]
}

// finish closes the phase spans and reports the policy's best entry.
func (e *engine) finish() (*Outcome, error) {
	e.phase2.End(obs.Int("accepted", e.accepted), obs.Int("evaluations", e.out.Evaluations))
	best, attrs := e.pol.Report(e.out.History)
	e.out.Best = best
	if e.out.Best.Cand == nil {
		e.search.End(obs.Str("error", "no feasible candidate"))
		return nil, fmt.Errorf("evo: %s found no feasible candidate in %d evaluations", e.pre, e.out.Evaluations)
	}
	e.search.End(append([]obs.Attr{obs.Int("evaluations", e.out.Evaluations)}, attrs...)...)
	return e.out, nil
}

// emigrants deterministically selects the shard's m best population entries
// under the policy's own reporting convention — Report applied to a
// shrinking copy of the population — without consuming random state.
func (e *engine) emigrants(m int) []Entry {
	pool := append([]Entry(nil), e.population...)
	var out []Entry
	for len(out) < m && len(pool) > 0 {
		best, _ := e.pol.Report(pool)
		if best.Cand == nil {
			break
		}
		for j := range pool {
			if pool[j].Cand == best.Cand {
				pool = append(pool[:j], pool[j+1:]...)
				break
			}
		}
		out = append(out, best)
	}
	return out
}

// immigrate applies the aging discipline to incoming migrants: the oldest
// members leave, the migrants join as the youngest. Migrants carry their
// origin-shard evaluations with them — both repo evaluators are
// deterministic per candidate, so re-evaluating would reproduce the same
// Result. They do not re-enter History (their origin shard recorded them).
func (e *engine) immigrate(in []Entry) {
	if len(in) == 0 {
		return
	}
	if len(in) > len(e.population) {
		in = in[:len(e.population)]
	}
	e.age(in...)
}
