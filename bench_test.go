// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark prints the rows/series the paper reports (once
// per `go test -bench` invocation) and times the experiment's core
// computation so `-benchmem` output remains meaningful.
//
//	go test -bench=. -benchmem
package solarml

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"solarml/internal/core"
	"solarml/internal/enas"
	"solarml/internal/evo"
	"solarml/internal/experiments"
	"solarml/internal/nas"
	"solarml/internal/nn"
	"solarml/internal/obs"
)

// onceEach guards the one-time printing of every benchmark's rows.
var onceEach sync.Map

func printOnce(key string, fn func()) {
	once, _ := onceEach.LoadOrStore(key, &sync.Once{})
	once.(*sync.Once).Do(fn)
}

// BenchmarkFig1EnergyDistribution regenerates Fig 1: the E_E/E_S/E_M energy
// split of six end-to-end systems with a 3 s event wait.
func BenchmarkFig1EnergyDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reps, err := experiments.Fig1()
		if err != nil {
			b.Fatal(err)
		}
		printOnce("fig1", func() {
			b.Log("Fig 1: energy cost distribution (3 s wait)")
			for _, r := range reps {
				b.Logf("  %s", r)
			}
		})
	}
}

// BenchmarkFig2EnergyTrace regenerates Fig 2: gesture and KWS energy traces
// after one minute of deep sleep, with the paper's E_E/E_S/E_M shares.
func BenchmarkFig2EnergyTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reps, err := experiments.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		printOnce("fig2", func() {
			b.Log("Fig 2: energy traces (paper: gesture 38/47/15, KWS 29/53/18)")
			for _, r := range reps {
				ee, es, em := r.Shares()
				b.Logf("  %-22s E_E %4.1f%%  E_S %4.1f%%  E_M %4.1f%%  total %7.0f µJ",
					r.Name, ee*100, es*100, em*100, r.Total*1e6)
			}
		})
	}
}

// BenchmarkFig6SleepMechanism regenerates Fig 6: the off → detect → sample
// → infer → standby → resume session driven through the real event circuit.
func BenchmarkFig6SleepMechanism(b *testing.B) {
	for i := 0; i < b.N; i++ {
		single, resumed, err := experiments.Fig6(500)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("fig6", func() {
			b.Logf("Fig 6: single-inference session %7.0f µJ over %.1f s",
				single.Trace.TotalEnergy()*1e6, single.Trace.Duration())
			b.Logf("       resumed session          %7.0f µJ over %.1f s (no second cold boot)",
				resumed.Trace.TotalEnergy()*1e6, resumed.Trace.Duration())
			for _, e := range resumed.Events {
				b.Logf("       %s", e)
			}
		})
	}
}

// BenchmarkFig7LayerEnergy regenerates Fig 7: per-layer-kind energy at
// equal MAC counts (paper: Dense ≈50 µJ vs Conv ≈175 µJ at 75 k MACs).
func BenchmarkFig7LayerEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.Fig7()
		printOnce("fig7", func() {
			b.Log("Fig 7: layer energy at equal MACs (µJ)")
			for _, macs := range []int64{25_000, 75_000, 150_000} {
				line := fmt.Sprintf("  %7d MACs:", macs)
				for _, k := range nn.ComputeKinds() {
					for _, p := range pts {
						if p.MACs == macs && p.Kind == k {
							line += fmt.Sprintf("  %s %.0f", k, p.EnergyJ*1e6)
						}
					}
				}
				b.Log(line)
			}
		})
	}
}

// BenchmarkTable1EstimatorR2 regenerates Table I: held-out R² of the energy
// estimation methods (paper: layer-wise LR 0.96, total-MACs 0.46, LogR
// 0.018, NR 0.75; sensing LR 0.92).
func BenchmarkTable1EstimatorR2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1(1)
		printOnce("table1", func() {
			b.Log("Table I: energy estimator comparison")
			for _, r := range rows {
				b.Logf("  %s", r)
			}
		})
	}
}

// BenchmarkTable3EventDetection regenerates Table III: the four event
// detectors' range, response time, power, and 5-second-window energy.
func BenchmarkTable3EventDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table3()
		printOnce("table3", func() {
			b.Logf("Table III:\n%s", experiments.FormatTable3(rows))
		})
	}
}

// BenchmarkFig9EnergyModelValidation regenerates Fig 9: held-out error of
// the fitted sensing and inference energy models (paper: sensing ≈3.1%,
// inference ≈12.8% vs µNAS ≈76.9%).
func BenchmarkFig9EnergyModelValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig9(2)
		printOnce("fig9", func() {
			b.Logf("Fig 9a: sensing model mean error %5.1f%% (paper ≈3.1%%), p90 %5.1f%%",
				res.SensingMean*100, experiments.Percentile(res.SensingErrs, 0.9)*100)
			b.Logf("Fig 9b: inference ours %5.1f%% (paper ≈12.8%%) vs µNAS %5.1f%% (paper ≈76.9%%)",
				res.OursMean*100, res.MuNASMean*100)
			b.Logf("Fig 9c: CDF ≤30%% error — ours %4.1f%%, µNAS %4.1f%%",
				experiments.ErrCDF(res.OursErrs, 0.3)*100, experiments.ErrCDF(res.MuNASErrs, 0.3)*100)
		})
	}
}

// benchFig10 runs the Fig 10 comparison at paper scale for one task.
func benchFig10(b *testing.B, task nas.Task, key string, budgetJ float64) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(task, experiments.ScalePaper, 1)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(key, func() {
			b.Logf("Fig 10 (%s): eNAS λ sweep vs µNAS over 20 sensing configs", task)
			for j, p := range res.ENASBest {
				b.Logf("  eNAS λ=%.1f: acc %.3f, %7.0f µJ", res.ENASLambdas[j], p.Acc, p.Energy*1e6)
			}
			for _, floor := range []float64{0.80, 0.82, 0.85, 0.90} {
				if enasE, muE, ratio, ok := res.EnergyRatioAt(floor, 0.03); ok {
					b.Logf("  @acc %.2f: eNAS %7.0f µJ vs µNAS avg %7.0f µJ → %.2f×",
						floor, enasE*1e6, muE*1e6, ratio)
				}
			}
			if budgetJ > 0 {
				if ea, ma, ok := res.AccuracyAtBudget(budgetJ); ok {
					b.Logf("  @%.0f mJ budget: eNAS %.3f vs µNAS %.3f", budgetJ*1e3, ea, ma)
				}
			}
		})
	}
}

// BenchmarkFig10aDigits regenerates Fig 10a (paper: ≥1.5× µNAS energy at
// accuracy 0.82).
func BenchmarkFig10aDigits(b *testing.B) {
	benchFig10(b, nas.TaskGesture, "fig10a", 0)
}

// BenchmarkFig10bKWS regenerates Fig 10b (paper: 0.88 vs 0.86 at 10 mJ,
// 2.1× µNAS energy at ≥90% accuracy).
func BenchmarkFig10bKWS(b *testing.B) {
	benchFig10(b, nas.TaskKWS, "fig10b", 10e-3)
}

// BenchmarkEndToEnd regenerates §V-D: SolarML vs PS+µNAS end-to-end energy
// and the harvesting times at 250/500/1000 lux.
func BenchmarkEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.EndToEnd(experiments.ScalePaper, 1)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("endtoend", func() {
			for _, s := range []struct {
				name string
				cmp  *core.EndToEndComparison
			}{{"digits", res.Digits}, {"KWS", res.KWS}} {
				b.Logf("  %-7s SolarML %7.0f µJ vs PS+µNAS %7.0f µJ → saving %4.1f%%; harvest %3.0f/%3.0f/%3.0f s @250/500/1000 lux",
					s.name, s.cmp.SolarML.Total*1e6, s.cmp.Baseline.Total*1e6, s.cmp.Savings*100,
					s.cmp.HarvestTimeS[250], s.cmp.HarvestTimeS[500], s.cmp.HarvestTimeS[1000])
			}
			b.Log("  (paper: digits 6660 vs 8468 µJ → 27%; KWS 12746 vs 18842 µJ → 48%; 31/57 s @500 lux)")
		})
	}
}

// BenchmarkAblationEnergyModels times the eNAS design ablation (layer-wise
// vs total-MACs energy model, with/without sensing search, HarvNet).
func BenchmarkAblationEnergyModels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Ablation(nas.TaskGesture, experiments.ScalePaper, 5)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("ablation", func() {
			b.Logf("  eNAS full:            acc %.3f, %7.0f µJ", res.Full.Acc, res.Full.Energy*1e6)
			b.Logf("  eNAS total-MACs:      acc %.3f, %7.0f µJ", res.TotalMACs.Acc, res.TotalMACs.Energy*1e6)
			b.Logf("  eNAS frozen sensing:  acc %.3f, %7.0f µJ", res.NoSensing.Acc, res.NoSensing.Energy*1e6)
			b.Logf("  HarvNet (max A/E):    acc %.3f, %7.0f µJ", res.HarvNetBest.Acc, res.HarvNetBest.Energy*1e6)
		})
	}
}

// BenchmarkMultiExitBudgetCurve regenerates the HarvNet-style multi-exit
// accuracy-versus-energy-budget curve (extension experiment; every
// candidate exit is really trained).
func BenchmarkMultiExitBudgetCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.MultiExit(3)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("multiexit", func() {
			b.Logf("\n%s", experiments.FormatMultiExit(res))
		})
	}
}

// BenchmarkObjectiveComparison regenerates the §IV-B objective comparison:
// Pareto hypervolume of the λ-objective vs random scalarization vs A/E.
func BenchmarkObjectiveComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.ObjectiveComparison(nas.TaskGesture, experiments.ScalePaper, 7)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("objectives", func() {
			b.Logf("  hypervolume (eNAS λ sweep = 1): random scalarization %.2f, HarvNet A/E %.2f",
				res.RandomHyper, res.HarvNetHyper)
		})
	}
}

// BenchmarkDTWBaseline regenerates the model-free baseline comparison:
// SolarGest-style DTW template matching vs a trained CNN at identical
// sensing configuration.
func BenchmarkDTWBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.DTWBaseline(5)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("baseline", func() {
			b.Logf("  DTW 1-NN: acc %.3f, E_M %4.0f µJ; CNN: acc %.3f, E_M %4.0f µJ → DTW pays %.1f× compute",
				res.DTWAccuracy, res.DTWInferJ*1e6, res.CNNAccuracy, res.CNNInferJ*1e6,
				res.DTWInferJ/res.CNNInferJ)
		})
	}
}

// BenchmarkSessionSimulation times one end-to-end session simulation — the
// inner loop of every system-level experiment.
func BenchmarkSessionSimulation(b *testing.B) {
	p := core.NewPlatform()
	cfg := core.Fig2Scenarios()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.RunSession(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSearchTelemetry times one complete small eNAS search with the given
// telemetry sink so the on/off pair below measures the recording overhead.
func benchSearchTelemetry(b *testing.B, rec *obs.Recorder, reg *obs.Registry) {
	space := nas.GestureSpace()
	cfg := enas.Config{
		Lambda: 0.5, Population: 16, SampleSize: 6, Cycles: 30,
		SensingEvery: 8, Seed: 9,
		Constraints: nas.DefaultConstraints(nas.TaskGesture),
		Obs:         rec, Metrics: reg,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval := nas.NewSurrogateEvaluator(nas.NewTruthEnergy())
		if _, err := enas.Search(space, eval, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchTelemetryOff is the no-op baseline for the pair: the same
// search with a nil recorder and registry. Compare against
// BenchmarkSearchTelemetryOn; the difference is the recording overhead.
func BenchmarkSearchTelemetryOff(b *testing.B) {
	benchSearchTelemetry(b, nil, nil)
}

// BenchmarkSearchTelemetryOn runs the same search with a live recorder
// (events discarded after encoding) and metrics registry, so the delta over
// BenchmarkSearchTelemetryOff is the full serialize-and-count cost.
func BenchmarkSearchTelemetryOn(b *testing.B) {
	benchSearchTelemetry(b, obs.NewRecorder(io.Discard), obs.NewRegistry())
}

// BenchmarkSurrogateSearchCached measures the internal/evo evaluation memo
// on a grid-heavy surrogate eNAS search (R = 4, so GRIDMUTATE re-enumerates
// the sensing neighbourhood every fourth cycle — the revisit-dominated
// regime where aging evolution hits the same fingerprints repeatedly): the
// same seeded search serial vs parallel, cache off vs on. The golden tests
// pin that the variants return the identical Outcome, so the spread here is
// pure wall-clock — a memo hit skips both the constraint-check network
// build and the evaluator.
func BenchmarkSurrogateSearchCached(b *testing.B) {
	run := func(workers int, cache bool) func(*testing.B) {
		return func(b *testing.B) {
			space := nas.GestureSpace()
			cfg := enas.Config{
				Lambda: 0.5, Population: 16, SampleSize: 6, Cycles: 150,
				SensingEvery: 4, Seed: 9,
				Constraints: nas.DefaultConstraints(nas.TaskGesture),
				Workers:     workers, Cache: cache,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eval := nas.NewSurrogateEvaluator(nas.NewTruthEnergy())
				if _, err := enas.Search(space, eval, cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("serial", run(0, false))
	b.Run("serial_cache", run(0, true))
	b.Run("workers4", run(4, false))
	b.Run("workers4_cache", run(4, true))
}

// BenchmarkIslandSearch measures the island layer's fan-out scaling: the
// same surrogate eNAS search as 1, 2, and 4 concurrent islands with a
// migrant exchange every 10 cycles. Each island does the same amount of
// search work, so ns/op growing sub-linearly in the island count is the
// concurrency win to watch; the cached variant shares one evaluation memo
// across shards, which is where cross-island revisits pay off.
func BenchmarkIslandSearch(b *testing.B) {
	run := func(islands int, cache bool) func(*testing.B) {
		return func(b *testing.B) {
			space := nas.GestureSpace()
			scfg := enas.Config{
				Lambda: 0.5, Population: 16, SampleSize: 6, Cycles: 60,
				SensingEvery: 8, Seed: 9,
				Constraints: nas.DefaultConstraints(nas.TaskGesture),
			}
			newPol := func() evo.Policy {
				p, err := enas.NewPolicy(space, scfg)
				if err != nil {
					b.Fatal(err)
				}
				return p
			}
			newEval := func() nas.Evaluator { return nas.NewSurrogateEvaluator(nas.NewTruthEnergy()) }
			icfg := evo.IslandConfig{
				Config: evo.Config{
					Population: 16, SampleSize: 6, Cycles: 60, Seed: 9,
					Constraints: nas.DefaultConstraints(nas.TaskGesture),
					Cache:       cache,
				},
				Islands:           islands,
				MigrationInterval: 10,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := evo.RunIslands(newPol, newEval, icfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("islands1", run(1, false))
	b.Run("islands2", run(2, false))
	b.Run("islands4", run(4, false))
	b.Run("islands4_cache", run(4, true))
}

// BenchmarkSurrogateSearchPerfbenchShape times the searches of perfbench's
// surrogate-search workload: eNAS at the paper's population (50), sample
// (20), and grid period (R = 20) over 30 cycles, alternating the two tasks
// with λ stratified over [0, 1), scored by the surrogate over energy models
// calibrated once from 300 draws per task. One op is one search; evals/s
// counts the candidates scored, and allocs/op is the engine's and the
// candidates' allocation cost per search.
func BenchmarkSurrogateSearchPerfbenchShape(b *testing.B) {
	spaces := []*nas.Space{nas.GestureSpace(), nas.KWSSpace()}
	evals := make([]nas.Evaluator, len(spaces))
	for i, space := range spaces {
		fitted, err := nas.CalibrateEnergy(space, 300, true, true, 1)
		if err != nil {
			b.Fatal(err)
		}
		evals[i] = nas.NewSurrogateEvaluator(fitted)
	}
	const strata = 4
	b.ReportAllocs()
	b.ResetTimer()
	scored := 0
	for i := 0; i < b.N; i++ {
		k := i % len(spaces)
		cfg := enas.DefaultConfig(spaces[k].Task, (float64(i/len(spaces)%strata)+0.5)/strata)
		cfg.Cycles = 30
		cfg.Seed = int64(i + 1)
		out, err := enas.Search(spaces[k], evals[k], cfg)
		if err != nil {
			b.Fatal(err)
		}
		scored += out.Evaluations
	}
	b.ReportMetric(float64(scored)/b.Elapsed().Seconds(), "evals/s")
}

// BenchmarkSurrogateEvaluation times one evaluation of a bound candidate,
// as every search candidate is — the inner loop of the NAS benchmarks —
// scored under the ground-truth energy.
func BenchmarkSurrogateEvaluation(b *testing.B) {
	benchSurrogateEvaluation(b, nas.NewTruthEnergy())
}

// BenchmarkSurrogateEvaluationFitted is BenchmarkSurrogateEvaluation under
// the frozen linear energy models CalibrateEnergy fits, which
// cmd/enas-search and the perfbench surrogate-search workload score with.
func BenchmarkSurrogateEvaluationFitted(b *testing.B) {
	fitted, err := nas.CalibrateEnergy(nas.GestureSpace(), 300, true, true, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchSurrogateEvaluation(b, fitted)
}

func benchSurrogateEvaluation(b *testing.B, energy nas.EnergyModel) {
	space := nas.GestureSpace()
	eval := nas.NewSurrogateEvaluator(energy)
	cands := make([]*nas.Candidate, 64)
	for i := range cands {
		cands[i] = space.RandomCandidate(randFor(int64(i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Evaluate(cands[i%len(cands)]); err != nil {
			b.Fatal(err)
		}
	}
}
