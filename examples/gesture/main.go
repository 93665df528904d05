// Gesture example: run a real-training eNAS search (every candidate is
// trained with the pure-Go nn substrate on the synthetic solar-cell digit
// dataset), then simulate the winning candidate end-to-end on the platform.
//
// This is the paper's digit-recognition pipeline at laptop scale: a reduced
// population/cycle budget keeps the run under a couple of minutes.
package main

import (
	"fmt"
	"log"
	"time"

	"solarml/internal/core"
	"solarml/internal/dataset"
	"solarml/internal/dsp"
	"solarml/internal/enas"
	"solarml/internal/nas"
	"solarml/internal/obs"
)

func main() {
	// Synthetic digit gestures captured by the 3×3 sensing cells at
	// 500 lux: 200 samples, 4:1 train/test split.
	full := dataset.BuildGestureSet(200, 500, 42)
	train, test := full.Split(4)
	fmt.Printf("dataset: %d train / %d test gestures, %d classes\n",
		len(train.Samples), len(test.Samples), dataset.NumGestureClasses)

	// Real-training evaluator: each candidate trains for 4 epochs, and
	// mutated children inherit their parent's trained weights (2 epochs).
	eval := &nas.TrainEvaluator{
		Energy:       nas.NewTruthEnergy(),
		GestureTrain: train,
		GestureTest:  test,
		Epochs:       4,
		LR:           0.05,
		Seed:         42,
		WarmStart:    true,
	}

	// eNAS at λ = 0.5: balance accuracy against sensing+inference energy.
	cfg := enas.Config{
		Lambda: 0.5, Population: 10, SampleSize: 4, Cycles: 16, SensingEvery: 8,
		Seed: 42, Constraints: nas.DefaultConstraints(nas.TaskGesture),
		Workers: 4, // candidates train in parallel
		// A dispatch-only recorder: cycle events reach the subscriber
		// below without being serialized anywhere.
		Obs: obs.NewRecorder(nil),
	}
	cfg.Obs.Subscribe(func(e obs.Event) {
		if e.Kind == obs.KindEvent && e.Name == "enas.cycle" && e.Int("cycle")%4 == 0 {
			fmt.Printf("  cycle %2d: best acc %.3f, energy %.0f µJ\n",
				e.Int("cycle"), e.Float("best_acc"), e.Float("best_energy_j")*1e6)
		}
	})
	fmt.Println("running eNAS with real candidate training…")
	start := time.Now()
	out, err := enas.Search(nas.GestureSpace(), eval, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("search done: %d trained candidates in %v\n",
		out.Evaluations, time.Since(start).Round(time.Second))
	best := out.Best
	fmt.Printf("\nbest candidate:\n  sensing: %s\n  arch:    %s\n  acc %.3f, energy %.0f µJ (E_S %.0f + E_M %.0f)\n",
		best.Cand.SensingString(), best.Cand.Arch,
		best.Res.Accuracy, best.Res.EnergyJ*1e6, best.Res.SensingJ*1e6, best.Res.InferJ*1e6)

	// Simulate the winner end-to-end on the platform.
	platform := core.NewPlatform()
	rep, err := platform.RunSession(core.SolarMLConfig("eNAS digits", nas.TaskGesture,
		best.Cand.Gesture, dsp.FrontEndConfig{}, best.Res.MACsByKind, 5))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nend-to-end session:")
	fmt.Println(rep)
	fmt.Printf("harvesting time @500 lux: %.0f s\n", platform.HarvestTime(rep.Total, 500))
}
