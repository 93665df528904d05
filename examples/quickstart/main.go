// Quickstart: assemble a SolarML platform, detect a hover event on the
// passive circuit, run one end-to-end gesture inference, and print the
// energy breakdown, the power trace, and the harvesting time that funds it.
package main

import (
	"fmt"
	"log"

	"solarml/internal/core"
	"solarml/internal/dataset"
	"solarml/internal/detect"
	"solarml/internal/dsp"
	"solarml/internal/nas"
	"solarml/internal/nn"
	"solarml/internal/quant"
)

func main() {
	platform := core.NewPlatform()

	// 1. The passive detector finds hover events on a detector-cell
	//    voltage trace (here: a synthetic office-light trace with one
	//    hover between samples 2000 and 2400 at 1 kHz).
	const rate = 1000.0
	v2 := make([]float64, 5000)
	for i := range v2 {
		shade := 0.0
		if i >= 2000 && i < 2400 {
			shade = 0.95
		}
		v2[i] = platform.Array.DetectVoltage(500, shade)
	}
	events := platform.Detector.DetectEvents(v2, rate, platform.Event.VTrigger, 0.05)
	fmt.Printf("detected %d hover event(s); first at t=%.2f s\n",
		len(events), float64(events[0].StartIdx)/rate)

	// 2. Run one end-to-end inference session: off → hover wake →
	//    9-channel sampling → inference with a small CNN.
	sensing := dataset.GestureConfig{
		Channels: 6, RateHz: 80,
		Quant: quant.Config{Res: quant.Int, Bits: 8},
	}
	model := nn.KindMACs{}.
		With(nn.KindConv, 300_000).
		With(nn.KindDense, 40_000).
		With(nn.KindNorm, 20_000)
	cfg := core.SolarMLConfig("quickstart gesture", nas.TaskGesture,
		sensing, dsp.FrontEndConfig{}, model, 5)
	rep, err := platform.RunSession(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rep)
	fmt.Print(rep.Trace.ASCII(80, 8))

	// 3. How long must the 25-cell array harvest to fund this session?
	for _, lux := range []float64{250, 500, 1000} {
		fmt.Printf("harvest time @%4.0f lux: %5.1f s\n", lux, platform.HarvestTime(rep.Total, lux))
	}

	// 4. Compare the event detectors of Table III on a 5-second window.
	fmt.Println("\nevent-detection energy for a 5 s window:")
	for _, d := range detect.All() {
		lo, hi := d.WindowEnergy(5)
		fmt.Printf("  %-10s %6.1f – %6.1f µJ\n", d.Name(), lo*1e6, hi*1e6)
	}
}
