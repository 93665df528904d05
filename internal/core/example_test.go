package core_test

import (
	"fmt"

	"solarml/internal/core"
	"solarml/internal/dataset"
	"solarml/internal/dsp"
	"solarml/internal/nas"
	"solarml/internal/nn"
	"solarml/internal/quant"
)

// ExamplePlatform_RunSession simulates one end-to-end gesture inference on
// the SolarML platform and reads back the E_E/E_S/E_M energy split.
func ExamplePlatform_RunSession() {
	p := core.NewPlatform()
	cfg := core.SolarMLConfig("demo", nas.TaskGesture,
		dataset.GestureConfig{Channels: 6, RateHz: 80,
			Quant: quant.Config{Res: quant.Int, Bits: 8}},
		dsp.FrontEndConfig{},
		nn.KindMACs{}.With(nn.KindConv, 300_000).With(nn.KindDense, 40_000),
		5, // seconds waiting for the user
	)
	rep, err := p.RunSession(cfg)
	if err != nil {
		panic(err)
	}
	ee, es, em := rep.Shares()
	fmt.Printf("buckets sum to total: %v\n", rep.EE+rep.ES+rep.EM == rep.Total)
	fmt.Printf("shares sum to one: %v\n", ee+es+em > 0.999 && ee+es+em < 1.001)
	fmt.Printf("sensing dominates: %v\n", es > ee && es > em)
	// Output:
	// buckets sum to total: true
	// shares sum to one: true
	// sensing dominates: true
}

// ExamplePlatform_HarvestTime computes how long the array must charge to
// fund a 5 mJ inference across light levels.
func ExamplePlatform_HarvestTime() {
	p := core.NewPlatform()
	t500 := p.HarvestTime(5e-3, 500)
	t1000 := p.HarvestTime(5e-3, 1000)
	fmt.Printf("brighter is faster: %v\n", t1000 < t500)
	fmt.Printf("500 lux takes tens of seconds: %v\n", t500 > 10 && t500 < 60)
	// Output:
	// brighter is faster: true
	// 500 lux takes tens of seconds: true
}
