// Package evo is the shared aging-evolution engine under the repo's three
// searches (eNAS, μNAS, HarvNet). The engine owns everything the paper's
// comparisons need to hold constant for fairness: population fill with a
// unified retry budget, tournament selection that scores each sampled
// candidate exactly once, the mutation/aging-replacement loop, deterministic
// parallel evaluation (worker pool with input-order merge), warm-start
// lineage routing, constraint handling, compute-context installation, obs
// spans/metrics, and the opt-in fingerprint-keyed evaluation cache. What
// differs between algorithms — the objective, the candidate source, the
// mutation schedule (including eNAS's GRIDMUTATE-every-R), and the reporting
// convention — lives behind the Policy interface, implemented by the thin
// adapters in internal/enas, internal/munas, and internal/harvnet.
//
// The engine is layered for scale:
//
//   - The serializable core (engine.go, rng.go, checkpoint.go) runs one
//     shard stepwise — fill, then one cycle at a time — over a snapshotable
//     PRNG, so a search checkpoints to disk at any cycle boundary and
//     resumes bit-identically.
//   - The island layer (island.go) fans N shards out over concurrent
//     workers with periodic deterministic migrant exchange; merges happen
//     in island-index order at barriers, so results are independent of
//     worker count and scheduling.
//   - The evaluation memo (cache.go, memostore.go) is optionally backed by
//     a persistent append-only store that shards share within a run and
//     that Merge reconciles across runs.
//
// Determinism contract: the engine consumes the seeded rng only through
// Policy.Fill, Policy.CycleScore, one Perm-equivalent draw sequence into
// an engine-owned buffer per tournament, and Policy.Mutate — never from
// evaluation, telemetry, or the cache — and parallel batches merge results
// in input order. A seeded run therefore
// returns a byte-identical Outcome for any Workers count, with telemetry on
// or off, and with the cache on or off (provided the evaluator is
// deterministic per candidate, which both repo evaluators are on the
// cold-start path). Checkpoint/resume and the island layer preserve the
// contract: a resumed search replays the exact PRNG stream, and migrations
// happen only at barriers, in index order.
package evo

import (
	"solarml/internal/nas"
	"solarml/internal/obs"
)

// Entry pairs a candidate with its evaluation. The search packages alias
// this type, so entries flow between the engine and the adapters unchanged.
type Entry struct {
	Cand *nas.Candidate
	Res  nas.Result
}

// fillRounds caps the population-fill retry loop: each round draws only the
// still-missing candidates, so 200 rounds means at least 200 consecutive
// all-reject batches before the engine gives up. This replaces the two
// budgets the searches used to disagree on (eNAS: 200 rounds; baselines:
// Population×200 single draws).
const fillRounds = 200

// mutateTries caps the per-cycle architecture-mutation attempts (Algorithm 1
// retries a rejected morphism rather than skipping the cycle).
const mutateTries = 16

// Config holds the algorithm-independent engine settings. The per-algorithm
// knobs (λ, grid period, sensing configuration, …) live in the Policy.
type Config struct {
	Population  int
	SampleSize  int
	Cycles      int
	Seed        int64
	Constraints nas.Constraints
	// Workers sets the evaluation parallelism for the population fill and
	// grid-mutation batches (≤1 means sequential). Results merge in
	// generation order, so the search stays deterministic for a given seed
	// as long as the evaluator itself is deterministic.
	Workers int
	// Obs, when set, receives the search telemetry: a <prefix>.search span
	// wrapping <prefix>.phase1/<prefix>.phase2 sub-spans, one <prefix>.cycle
	// event per evolution cycle, and one <prefix>.eval_batch span per
	// parallel batch, where <prefix> is Policy.Prefix(). Telemetry never
	// consumes random state.
	Obs *obs.Recorder
	// Metrics, when set, accumulates <prefix>.* search counters and
	// histograms plus the engine-shared evo.fill_rejects, evo.cache_hits,
	// evo.cache_misses, evo.migrations, evo.checkpoints, and
	// evo.checkpoint_* counters/histograms.
	Metrics *obs.Registry
	// Cache enables the evaluation memo: results are memoized per
	// nas.Candidate.Fingerprint() and repeat visits (aging evolution and
	// grid mutation revisit configurations constantly) skip the evaluator.
	// Cached entries still append to History and count toward Evaluations,
	// so a cached run returns an Outcome identical to an uncached one; the
	// savings show up in wall-clock and in the evo.cache_* counters. The
	// cache is bypassed on the warm-start path, where results legitimately
	// depend on the parent's trained weights.
	Cache bool
	// Memo, when set, backs the evaluation memo with a persistent
	// append-only store (implies Cache): entries loaded from the store
	// replay without touching the evaluator, new evaluations append to it,
	// and island shards share it within a run. The store's scope string
	// guards configuration skew — results are only trusted for the
	// evaluator configuration they were computed under, which is safe
	// because both repo evaluators are pure functions of the candidate
	// fingerprint on the cold-start path.
	Memo *MemoStore
}

// Outcome is the result of one engine run.
type Outcome struct {
	// Best is the policy's reported best entry (objective for eNAS, highest
	// feasible accuracy for μNAS, best A/E for HarvNet).
	Best Entry
	// History holds every evaluated candidate in evaluation order.
	History []Entry
	// EMin and EMax are the energy bounds of the filled population — the
	// Phase 1 normalization bounds of Algorithm 1.
	EMin, EMax float64
	// Evaluations counts scored candidates (cache hits included, so the
	// count is cache-invariant).
	Evaluations int
}

// Run executes aging evolution under the policy: fill the population, then
// Cycles rounds of tournament → mutate → evaluate → aging replacement.
func Run(pol Policy, eval nas.Evaluator, cfg Config) (*Outcome, error) {
	e, err := newEngine(pol, eval, cfg, nil, nil, -1)
	if err != nil {
		return nil, err
	}
	defer e.release()
	if err := e.fill(); err != nil {
		return nil, err
	}
	for e.cycle < e.cfg.Cycles {
		e.step()
	}
	return e.finish()
}
