// Command deploy runs the full model-deployment pipeline a SolarML user
// would ship: search a candidate with real training (or use the built-in
// default), train it to convergence, save the model file, reload it, lower
// it to the int8 program, and print the deployment report — int8 accuracy,
// flash and RAM footprint, per-inference sensing/inference energy, and
// harvesting time at office light levels.
//
// Usage:
//
//	deploy [-search] [-out model.bin] [-qout model.q8] [-header model.h]
//	       [-n 300] [-epochs 10] [-wbits 8] [-abits 8] [-seed 1]
//
// -out is the float model in the versioned SOLARMDL container; -qout is the
// int8 model cmd/serve loads, and -header the C header generated from the
// same int8 program for an MCU build. Above 8 bits the float model is the
// reference, so -wbits and -abits must lie in [2,8].
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"solarml/internal/dataset"
	"solarml/internal/enas"
	"solarml/internal/energymodel"
	"solarml/internal/harvest"
	"solarml/internal/mcu"
	"solarml/internal/nas"
	"solarml/internal/nn"
	"solarml/internal/quant"
)

func main() {
	search := flag.Bool("search", false, "run a small real-training eNAS search for the candidate")
	out := flag.String("out", "model.bin", "float model file path")
	qout := flag.String("qout", "model.q8", "int8 model file path for cmd/serve (empty = skip)")
	n := flag.Int("n", 300, "dataset size")
	epochs := flag.Int("epochs", 10, "final training epochs")
	wbits := flag.Int("wbits", 8, "int8 weight bits, in [2,8]")
	abits := flag.Int("abits", 8, "int8 activation bits, in [2,8]")
	header := flag.String("header", "", "also export the int8 model as a C header to this path")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()
	if err := run(*search, *out, *qout, *header, *n, *epochs, *wbits, *abits, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func run(search bool, out, qout, header string, n, epochs, wbits, abits int, seed int64) error {
	// The int8 program stores every weight and activation in a byte.
	if wbits < 2 || wbits > 8 || abits < 2 || abits > 8 {
		return fmt.Errorf("-wbits %d / -abits %d: both must lie in [2,8]", wbits, abits)
	}
	if tr, te := dataset.SplitSizes(n, dataset.NumGestureClasses, 4); tr == 0 || te == 0 {
		return fmt.Errorf("-n %d: the 4:1 split leaves %d train / %d test samples; both must be non-empty", n, tr, te)
	}
	full := dataset.BuildGestureSet(n, 500, seed)
	train, test := full.Split(4)

	// 1. Pick the candidate: a small search or the curated default.
	var cand *nas.Candidate
	if search {
		fmt.Println("searching (real training per candidate)…")
		eval := &nas.TrainEvaluator{
			Energy: nas.NewTruthEnergy(), GestureTrain: train, GestureTest: test,
			Epochs: 3, LR: 0.05, Seed: seed,
		}
		cfg := enas.Config{Lambda: 0.5, Population: 8, SampleSize: 4, Cycles: 12,
			SensingEvery: 6, Seed: seed, Constraints: nas.DefaultConstraints(nas.TaskGesture)}
		res, err := enas.Search(nas.GestureSpace(), eval, cfg)
		if err != nil {
			return err
		}
		cand = res.Best.Cand
	} else {
		cand = &nas.Candidate{Task: nas.TaskGesture,
			Gesture: dataset.GestureConfig{Channels: 6, RateHz: 80,
				Quant: quant.Config{Res: quant.Int, Bits: 8}},
			Arch: &nn.Arch{Body: []nn.LayerSpec{
				{Kind: nn.KindConv, Out: 6, K: 3, Stride: 1, Pad: 1},
				{Kind: nn.KindReLU},
				{Kind: nn.KindMaxPool, K: 2},
				{Kind: nn.KindDense, Out: 32},
				{Kind: nn.KindReLU},
			}, Classes: dataset.NumGestureClasses}}
		if err := cand.Validate(); err != nil {
			return err
		}
	}
	fmt.Printf("candidate: %s | %s\n", cand.SensingString(), cand.Arch)

	// 2. Train to convergence.
	trX, trY, err := train.Materialize(cand.Gesture)
	if err != nil {
		return err
	}
	teX, teY, err := test.Materialize(cand.Gesture)
	if err != nil {
		return err
	}
	net, err := cand.Arch.Build()
	if err != nil {
		return err
	}
	net.Init(rand.New(rand.NewSource(seed)))
	net.Fit(trX, trY, nn.TrainConfig{Epochs: epochs, BatchSize: 16, LR: 0.03, Momentum: 0.9, Seed: seed})
	floatAcc := net.Accuracy(teX, teY)
	fmt.Printf("trained: float accuracy %.3f\n", floatAcc)

	// 3. Save, reload, verify.
	if err := writeFile(out, func(w io.Writer) error { return nn.SaveModel(w, cand.Arch, net) }); err != nil {
		return err
	}
	rf, err := os.Open(out)
	if err != nil {
		return err
	}
	_, reloaded, err := nn.LoadModel(rf)
	rf.Close()
	if err != nil {
		return err
	}
	if got := reloaded.Accuracy(teX, teY); got != floatAcc {
		return fmt.Errorf("reloaded model accuracy %.3f != %.3f", got, floatAcc)
	}
	info, err := os.Stat(out)
	if err != nil {
		return err
	}
	fmt.Printf("saved %s (%d bytes), reload verified bit-exact\n", out, info.Size())

	// 4. Lower to the int8 program: the model cmd/serve runs, the .q8 file
	// stores, and the C header carries. Its accuracy is the deployment
	// accuracy. Flash counts the weights bit-packed at wbits on the MCU.
	m, err := nn.ConvertInt8(cand.Arch, reloaded, trX, nn.PTQConfig{WeightBits: wbits, ActBits: abits})
	if err != nil {
		return err
	}
	int8Acc := m.Accuracy(nil, teX, teY)
	report := fmt.Sprintf("int8 model int%d/w int%d/a: accuracy %.3f (Δ %.3f)", wbits, abits, int8Acc, int8Acc-floatAcc)
	if qout != "" {
		if err := writeFile(qout, func(w io.Writer) error { return nn.SaveInt8Model(w, m) }); err != nil {
			return err
		}
		qinfo, err := os.Stat(qout)
		if err != nil {
			return err
		}
		report += fmt.Sprintf(", %s %d bytes — %.1f× smaller than the float export", qout, qinfo.Size(),
			float64(info.Size())/float64(qinfo.Size()))
	}
	fmt.Printf("%s, flash %d B\n", report, (reloaded.ParamCount()*int64(wbits)+7)/8)
	if header != "" {
		if err := writeFile(header, func(w io.Writer) error { return m.ExportCHeader(w, "solarml_model") }); err != nil {
			return err
		}
		fmt.Printf("exported C header to %s\n", header)
	}

	// 5. Deployment energy report.
	profile := mcu.NRF52840()
	coeff := energymodel.DefaultCoefficients()
	es := energymodel.GestureSensingTrue(profile, cand.Gesture)
	em := coeff.TrueEnergy(reloaded.MACsByKind())
	ram := reloaded.MemoryBytes(wbits, abits)
	fmt.Printf("deployment: RAM %d B, E_S %.0f µJ + E_M %.0f µJ = %.0f µJ per inference\n",
		ram, es*1e6, em*1e6, (es+em)*1e6)
	h := harvest.New()
	for _, lux := range []float64{250, 500, 1000} {
		fmt.Printf("  harvest @%4.0f lux: %5.1f s per inference\n", lux, h.TimeToHarvest(es+em, lux))
	}
	return nil
}

// writeFile creates path and writes it through write, reporting the first
// write or close error.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
