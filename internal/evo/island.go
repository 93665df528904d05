package evo

import (
	"fmt"
	"os"
	"time"

	"solarml/internal/bytecodec"
	"solarml/internal/nas"
	"solarml/internal/obs"
)

// IslandConfig configures a multi-shard (island-model) search. Each island
// runs the full aging-evolution loop over its own policy instance,
// evaluator, and PRNG (seeded Seed+island), and islands interact only at
// migration barriers — which is what makes the run's outcome independent of
// worker count and goroutine scheduling, the same discipline firmware's
// fleet fan-out follows.
type IslandConfig struct {
	Config
	// Islands is the shard count. 1 reproduces a single-shard Run (same
	// seed, same stream, same Outcome).
	Islands int
	// MigrationInterval is the cycle period between migrant exchanges
	// (0 = never). At each barrier every island sends its Migrants best
	// entries (by its policy's own reporting convention) around a ring —
	// island i receives from island i-1 — processed in index order.
	MigrationInterval int
	// Migrants is the number of entries exchanged per barrier (default 1).
	Migrants int
	// Checkpoint, when set, persists the full run state (every island) at
	// cycle barriers, atomically.
	Checkpoint *CheckpointSpec
	// Resume restores the run from Checkpoint.Path instead of filling
	// fresh populations. The checkpoint's config echo must match.
	Resume bool
	// Progress, when set, is called from each island's worker after every
	// evolution cycle with (island, cycle). It runs concurrently across
	// islands, so it must be cheap and internally synchronized — the live
	// run inspector's striped Advance is the intended consumer. It must not
	// influence the search: outcomes stay bit-identical with or without it.
	Progress func(island, cycle int)
}

// IslandOutcome is the result of a multi-shard run.
type IslandOutcome struct {
	// Best is the globally best entry: policy Report over the islands'
	// histories concatenated in island order.
	Best Entry
	// Islands holds each shard's own Outcome, in island order.
	Islands []*Outcome
	// Evaluations sums scored candidates across islands.
	Evaluations int
	// Migrations counts entries moved between islands.
	Migrations int
}

// RunIslands executes aging evolution over cfg.Islands concurrent shards.
// newPol and newEval are factories because each island needs its own policy
// instance (policies carry per-run state) and its own evaluator (warm-start
// weight stores must not be shared across islands, or outcomes would depend
// on scheduling). Returns ErrStopped when the checkpoint spec asked the run
// to halt at a barrier; the checkpoint on disk then resumes the run
// bit-identically.
func RunIslands(newPol func() Policy, newEval func() nas.Evaluator, cfg IslandConfig) (*IslandOutcome, error) {
	if cfg.Islands < 1 {
		return nil, fmt.Errorf("evo: invalid island count %d", cfg.Islands)
	}
	if cfg.MigrationInterval < 0 {
		return nil, fmt.Errorf("evo: invalid migration interval %d", cfg.MigrationInterval)
	}
	migrants := cfg.Migrants
	if migrants <= 0 {
		migrants = 1
	}
	if migrants >= cfg.Population {
		return nil, fmt.Errorf("evo: %d migrants would displace the whole population of %d", migrants, cfg.Population)
	}
	n := cfg.Islands

	pols := make([]Policy, n)
	for i := range pols {
		pols[i] = newPol()
	}
	header := checkpointHeader{
		Prefix:     pols[0].Prefix(),
		Population: cfg.Population,
		SampleSize: cfg.SampleSize,
		Cycles:     cfg.Cycles,
		Seed:       cfg.Seed,
		Islands:    n,
		Interval:   cfg.MigrationInterval,
		Migrants:   migrants,
	}

	// One shared memo across islands: shards constantly rediscover each
	// other's candidates, and both repo evaluators are deterministic per
	// fingerprint on the cold path, so sharing changes wall-clock only.
	var shared *memoCache
	if cfg.Cache || cfg.Memo != nil {
		shared = newMemoCache(cfg.Metrics.Counter("evo.cache_hits"), cfg.Metrics.Counter("evo.cache_misses"))
		shared.attach(cfg.Memo)
	}

	var root obs.Span
	var parent *obs.Span
	if n > 1 {
		root = cfg.Obs.StartSpan("evo.islands",
			obs.Str("algo", header.Prefix), obs.Int("islands", n),
			obs.Int("migration_interval", cfg.MigrationInterval),
			obs.Int("migrants", migrants), obs.Int64("seed", cfg.Seed),
			obs.Bool("resume", cfg.Resume))
		parent = &root
	}
	fail := func(err error) (*IslandOutcome, error) {
		if n > 1 {
			root.End(obs.Str("error", err.Error()))
		}
		return nil, err
	}

	engines := make([]*engine, n)
	for i := range engines {
		icfg := cfg.Config
		icfg.Seed = cfg.Seed + int64(i)
		island := i
		if n == 1 {
			island = -1
		}
		e, err := newEngine(pols[i], newEval(), icfg, shared, parent, island)
		if err != nil {
			return fail(err)
		}
		engines[i] = e
	}

	if cfg.Resume {
		if cfg.Checkpoint == nil || cfg.Checkpoint.Path == "" {
			return fail(fmt.Errorf("evo: resume requested without a checkpoint path"))
		}
		data, err := os.ReadFile(cfg.Checkpoint.Path)
		if err != nil {
			return fail(fmt.Errorf("evo: resume: %w", err))
		}
		got, payloads, err := decodeCheckpoint(data)
		if err != nil {
			return fail(fmt.Errorf("evo: checkpoint %s: %w", cfg.Checkpoint.Path, err))
		}
		if got != header {
			return fail(fmt.Errorf("evo: checkpoint %s was written by a different search configuration (%+v, want %+v)",
				cfg.Checkpoint.Path, got, header))
		}
		for i, e := range engines {
			if err := e.restoreState(bytecodec.NewReader(payloads[i])); err != nil {
				return fail(fmt.Errorf("evo: checkpoint %s island %d: %w", cfg.Checkpoint.Path, i, err))
			}
		}
	} else {
		// Fill all islands concurrently; first error in index order wins,
		// so failures are as deterministic as successes.
		errs := make([]error, n)
		ForEach(n, n, func(i int) { errs[i] = engines[i].fill() })
		for _, err := range errs {
			if err != nil {
				return fail(err)
			}
		}
		if cfg.Checkpoint != nil && cfg.Checkpoint.Path != "" {
			// Checkpoint the filled populations: Phase 1 is the expensive
			// part, and a kill during early cycles should not repeat it.
			if err := checkpointAll(header, engines, cfg.Checkpoint, cfg.Metrics, parent); err != nil {
				return fail(err)
			}
		}
	}

	migrations := 0
	mig := cfg.MigrationInterval
	ck := cfg.Checkpoint
	for cur := engines[0].cycle; cur < cfg.Cycles; {
		next := cfg.Cycles
		if n > 1 && mig > 0 {
			if b := nextMultiple(cur, mig); b < next {
				next = b
			}
		}
		if ck != nil && ck.Every > 0 {
			if b := nextMultiple(cur, ck.Every); b < next {
				next = b
			}
		}
		target := next
		ForEach(n, n, func(i int) {
			for engines[i].cycle < target {
				engines[i].step()
				if cfg.Progress != nil {
					cfg.Progress(i, engines[i].cycle)
				}
			}
		})
		cur = target
		if n > 1 && mig > 0 && cur%mig == 0 && cur < cfg.Cycles {
			moved := migrateRing(engines, migrants)
			migrations += moved
			cfg.Metrics.Counter("evo.migrations").Add(int64(moved))
			root.Event("evo.migration", obs.Int("cycle", cur), obs.Int("moved", moved))
		}
		if ck != nil && ck.Path != "" && (cur == cfg.Cycles || (ck.Every > 0 && cur%ck.Every == 0)) {
			if err := checkpointAll(header, engines, ck, cfg.Metrics, parent); err != nil {
				return fail(err)
			}
			if ck.StopAfterCycle > 0 && cur >= ck.StopAfterCycle && cur < cfg.Cycles {
				if n > 1 {
					root.End(obs.Str("stopped_at", fmt.Sprintf("cycle %d", cur)))
				}
				return nil, ErrStopped
			}
		}
	}

	out := &IslandOutcome{Islands: make([]*Outcome, n), Migrations: migrations}
	var combined []Entry
	for i, e := range engines {
		o, err := e.finish()
		if err != nil {
			return fail(err)
		}
		out.Islands[i] = o
		out.Evaluations += o.Evaluations
		combined = append(combined, o.History...)
	}
	best, attrs := pols[0].Report(combined)
	out.Best = best
	if out.Best.Cand == nil {
		return fail(fmt.Errorf("evo: %s found no feasible candidate across %d islands", header.Prefix, n))
	}
	if n > 1 {
		root.End(append([]obs.Attr{
			obs.Int("evaluations", out.Evaluations),
			obs.Int("migrations", migrations),
		}, attrs...)...)
	}
	for _, e := range engines {
		e.release()
	}
	return out, nil
}

// nextMultiple returns the smallest multiple of k strictly greater than cur.
func nextMultiple(cur, k int) int { return (cur/k + 1) * k }

// migrateRing runs one exchange: every island's emigrants are selected
// first (so selection never observes this barrier's arrivals), then each
// island receives from its left neighbour, in index order. Entries migrate
// by reference — candidates are immutable once evaluated — and keep their
// origin-shard Results, which re-evaluation would reproduce exactly.
func migrateRing(engines []*engine, m int) int {
	n := len(engines)
	out := make([][]Entry, n)
	for i, e := range engines {
		out[i] = e.emigrants(m)
	}
	moved := 0
	for i, e := range engines {
		in := out[(i-1+n)%n]
		e.immigrate(in)
		moved += len(in)
	}
	return moved
}

// checkpointAll encodes and atomically writes the full run state, recording
// size and latency telemetry.
func checkpointAll(h checkpointHeader, engines []*engine, spec *CheckpointSpec, reg *obs.Registry, parent *obs.Span) error {
	t0 := time.Now()
	data, err := encodeCheckpoint(h, engines)
	if err != nil {
		return err
	}
	if err := writeCheckpointFile(spec.Path, data); err != nil {
		return err
	}
	sec := time.Since(t0).Seconds()
	reg.Counter("evo.checkpoints").Inc()
	reg.Gauge("evo.checkpoint_bytes").Set(float64(len(data)))
	reg.Histogram("evo.checkpoint_seconds", obs.TimeBuckets).Observe(sec)
	if parent != nil {
		parent.Event("evo.checkpoint",
			obs.Int("cycle", engines[0].cycle), obs.Int("bytes", len(data)), obs.F64("seconds", sec))
	}
	return nil
}
