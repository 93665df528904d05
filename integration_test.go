package solarml

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"solarml/internal/core"
	"solarml/internal/dataset"
	"solarml/internal/dsp"
	"solarml/internal/enas"
	"solarml/internal/firmware"
	"solarml/internal/nas"
	"solarml/internal/nn"
)

// TestIntegrationRealTrainingSearch drives the whole stack end-to-end with
// no surrogate shortcuts: synthetic gestures → eNAS with real per-candidate
// training → the winner simulated on the platform → harvesting time.
func TestIntegrationRealTrainingSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("real-training search is slow")
	}
	full := dataset.BuildGestureSet(150, 500, 99)
	train, test := full.Split(3)
	eval := &nas.TrainEvaluator{
		Energy:       nas.NewTruthEnergy(),
		GestureTrain: train,
		GestureTest:  test,
		Epochs:       3,
		LR:           0.05,
		Seed:         99,
	}
	cfg := enas.Config{
		Lambda: 0.5, Population: 8, SampleSize: 4, Cycles: 10, SensingEvery: 5,
		Seed: 99, Constraints: nas.DefaultConstraints(nas.TaskGesture),
		Workers: 4,
	}
	out, err := enas.Search(nas.GestureSpace(), eval, cfg)
	if err != nil {
		t.Fatal(err)
	}
	best := out.Best
	if best.Res.Accuracy < 0.75 {
		t.Fatalf("real-training search best accuracy %.3f below error cap", best.Res.Accuracy)
	}
	if err := cfg.Constraints.CheckStatic(best.Cand); err != nil {
		t.Fatal(err)
	}

	// Simulate the winner on the platform.
	p := core.NewPlatform()
	rep, err := p.RunSession(core.SolarMLConfig("integration", nas.TaskGesture,
		best.Cand.Gesture, dsp.FrontEndConfig{}, best.Res.MACsByKind, 5))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total <= 0 || rep.Total > 50e-3 {
		t.Fatalf("implausible session energy %.1f mJ", rep.Total*1e3)
	}
	if ht := p.HarvestTime(rep.Total, 500); ht <= 0 || ht > 300 {
		t.Fatalf("implausible harvest time %.0f s", ht)
	}

	// The winner's energy books must agree with the evaluator's.
	truth := nas.NewTruthEnergy()
	if truth.SensingEnergy(best.Cand) != best.Res.SensingJ {
		t.Fatal("sensing energy accounting diverged")
	}
}

// TestIntegrationDeployAndRedeploy exercises the deployment loop: train a
// model, save it, reload it, lower it to int8, and run the deployment
// in the lifetime simulator.
func TestIntegrationDeployAndRedeploy(t *testing.T) {
	if testing.Short() {
		t.Skip("training is slow")
	}
	full := dataset.BuildGestureSet(150, 500, 77)
	train, test := full.Split(3)
	cand := firmware.DefaultConfig()
	trX, trY, err := train.Materialize(cand.Gesture)
	if err != nil {
		t.Fatal(err)
	}
	teX, teY, err := test.Materialize(cand.Gesture)
	if err != nil {
		t.Fatal(err)
	}
	arch := &nn.Arch{
		Input: cand.Gesture.InputShape(),
		Body: []nn.LayerSpec{
			{Kind: nn.KindConv, Out: 6, K: 3, Stride: 1, Pad: 1},
			{Kind: nn.KindReLU},
			{Kind: nn.KindMaxPool, K: 2},
			{Kind: nn.KindDense, Out: 24},
			{Kind: nn.KindReLU},
		},
		Classes: dataset.NumGestureClasses,
	}
	net, err := arch.Build()
	if err != nil {
		t.Fatal(err)
	}
	net.Init(rand.New(rand.NewSource(77)))
	net.Fit(trX, trY, nn.TrainConfig{Epochs: 8, BatchSize: 16, LR: 0.03, Momentum: 0.9, Seed: 77})
	floatAcc := net.Accuracy(teX, teY)
	if floatAcc < 0.6 {
		t.Fatalf("trained accuracy %.3f too low", floatAcc)
	}

	// Save and reload through a real file.
	path := filepath.Join(t.TempDir(), "model.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := nn.SaveModel(f, arch, net); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	_, reloaded, err := nn.LoadModel(rf)
	rf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := reloaded.Accuracy(teX, teY); got != floatAcc {
		t.Fatalf("reload changed accuracy: %.3f vs %.3f", got, floatAcc)
	}

	// Lower to the int8 program the device runs.
	m, err := nn.ConvertInt8(arch, reloaded, trX, nn.PTQConfig{WeightBits: 8, ActBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	if qAcc := m.Accuracy(nil, teX, teY); qAcc < floatAcc-0.1 {
		t.Fatalf("int8 accuracy drop too large: %.3f vs %.3f", qAcc, floatAcc)
	}

	// Run the deployed model through a day in the lifetime simulator.
	cfg := firmware.DefaultConfig()
	cfg.InferMACs = reloaded.MACsByKind()
	cfg.Lux = firmware.OfficeDay(500)
	sim, err := firmware.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	day := 8 * 3600.0
	stats, err := sim.Run(day, firmware.PoissonArrivals(rng, day, 900))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rate(firmware.Completed) < 0.7 {
		t.Fatalf("deployment completes too few interactions: %s", stats.Summary())
	}
}
