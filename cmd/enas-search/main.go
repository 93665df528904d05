// Command enas-search runs a single NAS search — eNAS, μNAS, or HarvNet —
// and prints the best candidate with its accuracy/energy breakdown.
//
// Usage:
//
//	enas-search [-algo enas|munas|harvnet] [-task gesture|kws]
//	            [-lambda 0.5] [-pop 50] [-sample 20] [-cycles 150]
//	            [-grid-every 20] [-seed 1] [-eval surrogate|train]
//	            [-workers 1] [-compute-workers 0] [-cache]
//	            [-islands 1] [-migration-interval 25] [-migrants 1]
//	            [-checkpoint search.ckpt] [-checkpoint-every 25]
//	            [-resume] [-stop-after 0] [-cache-file eval.memo]
//	            [-trace-out run.jsonl] [-metrics-out metrics.json]
//	            [-metrics-interval 1s] [-pprof localhost:6060]
//
// With -eval train, every candidate is really trained on the synthetic
// datasets (slow but end-to-end); with -eval surrogate the calibrated
// analytic accuracy model is used (the Fig 10 configuration).
//
// All three algorithms run on the shared internal/evo engine, so -workers,
// -compute-workers, and -cache apply uniformly: -workers parallelizes
// candidate evaluation (results merge in generation order, so the search
// result is seed-reproducible at any width), -compute-workers splits each
// training run across kernel workers, and -cache memoizes evaluations per
// candidate fingerprint (identical result, fewer evaluator calls).
//
// -islands > 1 fans the search out over concurrent island shards with a
// deterministic migrant ring every -migration-interval cycles; the outcome
// is independent of -workers and scheduling. -checkpoint persists the full
// run state every -checkpoint-every cycles (atomically), -resume restarts
// from it bit-identically, and -stop-after N stops the run gracefully at
// the first checkpoint barrier at or past cycle N (the CI resume smoke).
// -cache-file backs the evaluation memo with a persistent store that later
// runs (and other islands) reuse.
//
// -trace-out writes a JSONL obs trace (run manifest, phase spans, one
// <algo>.cycle event per cycle); -metrics-out writes a final metrics
// snapshot; -metrics-interval records a metrics time series (plus runtime
// gauges) at that cadence; -pprof serves net/http/pprof, expvar, and
// Prometheus /metrics so long searches can be profiled and scraped live.
// All are off by default and cost nothing when unset. The trace is closed
// with a terminal metrics flush and finish event even when the search
// errors, so aborted runs still parse with cmd/obs-report.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"solarml/internal/compute"
	"solarml/internal/dataset"
	"solarml/internal/enas"
	"solarml/internal/evo"
	"solarml/internal/harvnet"
	"solarml/internal/munas"
	"solarml/internal/nas"
	"solarml/internal/obs"
	obscli "solarml/internal/obs/cli"
	"solarml/internal/obs/fleetobs"
)

// options carries every search flag; the distributed engine path and the
// legacy single-shard path both read from it.
type options struct {
	algo, taskName, evalName string
	lambda                   float64
	pop, sample, cycles      int
	gridEvery                int
	seed                     int64
	trainN                   int
	workers                  int
	warm, cache              bool

	islands           int
	migrationInterval int
	migrants          int
	checkpoint        string
	checkpointEvery   int
	resume            bool
	stopAfter         int
	cacheFile         string
}

// distributed reports whether any island/checkpoint/memo flag is in play —
// the cue to drive evo.RunIslands instead of the per-algorithm Search
// wrappers (which stay byte-identical for existing single-shard usage).
func (o *options) distributed() bool {
	return o.islands > 1 || o.checkpoint != "" || o.resume || o.cacheFile != ""
}

func main() {
	var o options
	flag.StringVar(&o.algo, "algo", "enas", "search algorithm: enas, munas, harvnet")
	flag.StringVar(&o.taskName, "task", "gesture", "task: gesture or kws")
	flag.Float64Var(&o.lambda, "lambda", 0.5, "eNAS accuracy/energy trade-off λ ∈ [0,1]")
	flag.IntVar(&o.pop, "pop", 50, "population size")
	flag.IntVar(&o.sample, "sample", 20, "tournament sample size")
	flag.IntVar(&o.cycles, "cycles", 150, "evolution cycles")
	flag.IntVar(&o.gridEvery, "grid-every", 20, "sensing grid-mutation period R")
	flag.Int64Var(&o.seed, "seed", 1, "random seed")
	flag.StringVar(&o.evalName, "eval", "surrogate", "evaluator: surrogate or train")
	flag.IntVar(&o.trainN, "train-n", 200, "dataset size for -eval train")
	flag.IntVar(&o.workers, "workers", 1, "parallel candidate evaluations (population fill + grid batches, all algorithms)")
	computeWorkers := flag.Int("compute-workers", 0, "kernel workers per candidate training run (0 = NumCPU/workers, 1 = serial)")
	flag.BoolVar(&o.cache, "cache", false, "memoize evaluations per candidate fingerprint (identical result, fewer evaluator calls)")
	flag.BoolVar(&o.warm, "warm", false, "with -eval train: children inherit parent weights (fewer epochs)")
	flag.IntVar(&o.islands, "islands", 1, "island shards (each evolves independently between migrations)")
	flag.IntVar(&o.migrationInterval, "migration-interval", 25, "cycles between migrant exchanges (0 = never)")
	flag.IntVar(&o.migrants, "migrants", 1, "entries exchanged per migration barrier")
	flag.StringVar(&o.checkpoint, "checkpoint", "", "checkpoint file: persist full search state at cycle barriers")
	flag.IntVar(&o.checkpointEvery, "checkpoint-every", 25, "cycles between checkpoints")
	flag.BoolVar(&o.resume, "resume", false, "resume from -checkpoint instead of starting fresh")
	flag.IntVar(&o.stopAfter, "stop-after", 0, "stop at the first checkpoint barrier at or past this cycle (0 = run to completion)")
	flag.StringVar(&o.cacheFile, "cache-file", "", "persistent evaluation memo file shared across runs")
	obsFlags := obscli.AddFlags(nil)
	flag.Parse()
	if err := o.check(); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}

	if err := mainErr(obsFlags, &o, *computeWorkers); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

// check rejects flag combinations that cannot run, before any work starts.
func (o *options) check() error {
	if o.evalName != "train" {
		return nil
	}
	classes := dataset.NumGestureClasses
	if o.taskName == "kws" {
		classes = dataset.NumKWSClasses
	}
	if tr, te := dataset.SplitSizes(o.trainN, classes, 4); tr == 0 || te == 0 {
		return fmt.Errorf("-train-n %d: the 4:1 split leaves %d train / %d test samples; both must be non-empty", o.trainN, tr, te)
	}
	return nil
}

// mainErr is the whole run behind a deferred telemetry close: whatever path
// exits — happy, search error, evaluator construction failure — the trace
// gets its terminal FlushMetrics + Finish and the files are flushed, so
// obs-report can parse aborted runs.
func mainErr(obsFlags *obscli.Flags, o *options, computeWorkers int) (err error) {
	sess, err := obsFlags.Open()
	if err != nil {
		return err
	}
	defer sess.CloseWith(&err)
	kw := computeWorkers
	if kw <= 0 {
		kw = compute.BudgetWorkers(o.workers)
	}
	cctx := compute.NewContextFor(kw, sess.Reg)
	sess.Manifest("enas-search", o.seed, map[string]any{
		"algo": o.algo, "task": o.taskName, "lambda": o.lambda,
		"pop": o.pop, "sample": o.sample, "cycles": o.cycles,
		"grid_every": o.gridEvery, "eval": o.evalName, "workers": o.workers,
		"warm": o.warm, "train_n": o.trainN, "compute_workers": kw, "cache": o.cache,
		"islands": o.islands, "migration_interval": o.migrationInterval,
		"migrants": o.migrants, "checkpoint": o.checkpoint, "resume": o.resume,
		"cache_file": o.cacheFile,
	})
	return run(o, sess, cctx)
}

func run(o *options, sess *obscli.Session, cctx *compute.Context) error {
	rec, reg := sess.Rec, sess.Reg
	task := nas.TaskGesture
	space := nas.GestureSpace()
	if o.taskName == "kws" {
		task = nas.TaskKWS
		space = nas.KWSSpace()
	}

	if o.distributed() {
		return runIslands(o, task, space, sess, cctx)
	}

	eval, err := buildEvaluator(o.evalName, task, space, o.seed, o.trainN, o.warm, rec, reg, cctx)
	if err != nil {
		return err
	}

	start := time.Now()
	switch o.algo {
	case "enas":
		cfg := enas.Config{
			Lambda: o.lambda, Population: o.pop, SampleSize: o.sample,
			Cycles: o.cycles, SensingEvery: o.gridEvery, Seed: o.seed,
			Constraints: nas.DefaultConstraints(task),
			Workers:     o.workers,
			Obs:         rec,
			Metrics:     reg,
			Cache:       o.cache,
		}
		out, err := enas.Search(space, eval, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("eNAS (λ=%.2f) finished: %d evaluations in %v\n", o.lambda, out.Evaluations, time.Since(start).Round(time.Millisecond))
		fmt.Printf("  energy bounds: E_min %.0f µJ, E_max %.0f µJ\n", out.EMin*1e6, out.EMax*1e6)
		printBest(out.Best.Cand, out.Best.Res)
	case "munas":
		sensing := space.RandomCandidate(rand.New(rand.NewSource(o.seed)))
		cfg := munas.Config{Population: o.pop, SampleSize: o.sample, Cycles: o.cycles,
			Seed: o.seed, Constraints: nas.DefaultConstraints(task),
			Workers: o.workers, Obs: rec, Metrics: reg, Cache: o.cache}
		out, err := munas.Search(space, sensing, eval, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("µNAS finished: %d evaluations in %v (fixed sensing: %s)\n",
			out.Evaluations, time.Since(start).Round(time.Millisecond), sensing.SensingString())
		printBest(out.BestAccuracy.Cand, out.BestAccuracy.Res)
	case "harvnet":
		sensing := space.RandomCandidate(rand.New(rand.NewSource(o.seed)))
		cfg := harvnet.Config{Population: o.pop, SampleSize: o.sample, Cycles: o.cycles,
			Seed: o.seed, Constraints: nas.DefaultConstraints(task),
			Workers: o.workers, Obs: rec, Metrics: reg, Cache: o.cache}
		out, err := harvnet.Search(space, sensing, eval, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("HarvNet finished: %d evaluations in %v (fixed sensing: %s)\n",
			out.Evaluations, time.Since(start).Round(time.Millisecond), sensing.SensingString())
		printBest(out.Best.Cand, out.Best.Res)
	default:
		return fmt.Errorf("unknown algorithm %q", o.algo)
	}
	return nil
}

// runIslands drives the engine's island/checkpoint layer. It builds one
// policy and one evaluator per island (warm-start weight stores must not be
// shared across shards) and funnels the distributed flags into
// evo.IslandConfig.
func runIslands(o *options, task nas.Task, space *nas.Space, sess *obscli.Session, cctx *compute.Context) error {
	rec, reg := sess.Rec, sess.Reg
	constraints := nas.DefaultConstraints(task)
	var newPol func() evo.Policy
	switch o.algo {
	case "enas":
		cfg := enas.Config{
			Lambda: o.lambda, Population: o.pop, SampleSize: o.sample,
			Cycles: o.cycles, SensingEvery: o.gridEvery, Seed: o.seed,
			Constraints: constraints,
		}
		if _, err := enas.NewPolicy(space, cfg); err != nil {
			return err
		}
		newPol = func() evo.Policy { p, _ := enas.NewPolicy(space, cfg); return p }
	case "munas":
		sensing := space.RandomCandidate(rand.New(rand.NewSource(o.seed)))
		cfg := munas.Config{Population: o.pop, SampleSize: o.sample, Cycles: o.cycles,
			Seed: o.seed, Constraints: constraints}
		newPol = func() evo.Policy { return munas.NewPolicy(space, sensing, cfg) }
	case "harvnet":
		sensing := space.RandomCandidate(rand.New(rand.NewSource(o.seed)))
		cfg := harvnet.Config{Population: o.pop, SampleSize: o.sample, Cycles: o.cycles,
			Seed: o.seed, Constraints: constraints}
		newPol = func() evo.Policy { return harvnet.NewPolicy(space, sensing, cfg) }
	default:
		return fmt.Errorf("unknown algorithm %q", o.algo)
	}

	// One evaluator per island, built eagerly so construction errors surface
	// before any island fills; RunIslands consumes the factory in island
	// order from one goroutine.
	evals := make([]nas.Evaluator, o.islands)
	for i := range evals {
		ev, err := buildEvaluator(o.evalName, task, space, o.seed, o.trainN, o.warm, rec, reg, cctx)
		if err != nil {
			return err
		}
		evals[i] = ev
	}
	nextEval := 0
	newEval := func() nas.Evaluator { ev := evals[nextEval]; nextEval++; return ev }

	var memo *evo.MemoStore
	if o.cacheFile != "" {
		// The scope pins every knob the memoized results depend on: task and
		// evaluator kind select the model, seed selects the surrogate
		// calibration (or training init), train-n the dataset size.
		scope := fmt.Sprintf("solarml-memo/v1 task=%s eval=%s seed=%d train_n=%d",
			o.taskName, o.evalName, o.seed, o.trainN)
		var err error
		memo, err = evo.OpenMemoStore(o.cacheFile, scope)
		if err != nil {
			return err
		}
		defer memo.Close()
		st := memo.Stats()
		fmt.Printf("memo %s: %d entries loaded (%d skipped, %d duplicates)\n",
			o.cacheFile, st.Loaded, st.Skipped, st.Duplicates)
	}

	icfg := evo.IslandConfig{
		Config: evo.Config{
			Population: o.pop, SampleSize: o.sample, Cycles: o.cycles,
			Seed: o.seed, Constraints: constraints, Workers: o.workers,
			Obs: rec, Metrics: reg, Cache: o.cache, Memo: memo,
		},
		Islands:           o.islands,
		MigrationInterval: o.migrationInterval,
		Migrants:          o.migrants,
		Resume:            o.resume,
	}
	if o.checkpoint != "" {
		icfg.Checkpoint = &evo.CheckpointSpec{
			Path: o.checkpoint, Every: o.checkpointEvery, StopAfterCycle: o.stopAfter,
		}
	}
	if sess.Mounted() {
		// Live inspector: each island reports cycle completions on its own
		// stripe; /debug/fleet serves progress and ETA over all islands.
		in := fleetobs.NewInspector("cycles", o.islands*o.cycles, o.islands)
		sess.Mount("/debug/fleet", in.Handler())
		icfg.Progress = func(island, cycle int) { in.Advance(island, 1, 0) }
		defer in.Finish()
	}

	start := time.Now()
	out, err := evo.RunIslands(newPol, newEval, icfg)
	if errors.Is(err, evo.ErrStopped) {
		fmt.Printf("%s search stopped at checkpoint %s after %v — resume with -resume\n",
			o.algo, o.checkpoint, time.Since(start).Round(time.Millisecond))
		return nil
	}
	if err != nil {
		return err
	}
	fmt.Printf("%s finished: %d evaluations across %d islands (%d migrations) in %v\n",
		o.algo, out.Evaluations, o.islands, out.Migrations, time.Since(start).Round(time.Millisecond))
	printBest(out.Best.Cand, out.Best.Res)
	return nil
}

func buildEvaluator(name string, task nas.Task, space *nas.Space, seed int64, trainN int, warm bool, rec *obs.Recorder, reg *obs.Registry, cctx *compute.Context) (nas.Evaluator, error) {
	switch name {
	case "surrogate":
		fitted, err := nas.CalibrateEnergy(space, 300, true, true, seed)
		if err != nil {
			return nil, err
		}
		ev := nas.NewSurrogateEvaluator(fitted)
		ev.Obs = rec
		return ev, nil
	case "train":
		ev := &nas.TrainEvaluator{Energy: nas.NewTruthEnergy(), Epochs: 4, LR: 0.05, Seed: seed, WarmStart: warm, Obs: rec, Metrics: reg, Compute: cctx}
		if task == nas.TaskGesture {
			full := dataset.BuildGestureSet(trainN, 500, seed)
			ev.GestureTrain, ev.GestureTest = full.Split(4)
		} else {
			full := dataset.BuildKWSSet(trainN, seed)
			ev.KWSTrain, ev.KWSTest = full.Split(4)
		}
		return ev, nil
	}
	return nil, fmt.Errorf("unknown evaluator %q", name)
}

func printBest(c *nas.Candidate, r nas.Result) {
	fmt.Println("best candidate:")
	fmt.Printf("  sensing:     %s\n", c.SensingString())
	fmt.Printf("  arch:        %s\n", c.Arch)
	fmt.Printf("  fingerprint: %016x\n", c.Fingerprint())
	fmt.Printf("  accuracy:    %.3f\n", r.Accuracy)
	fmt.Printf("  energy:      %.0f µJ  (sensing %.0f + inference %.0f)\n",
		r.EnergyJ*1e6, r.SensingJ*1e6, r.InferJ*1e6)
	fmt.Printf("  MACs:        %d\n", r.TotalMACs)
}
