// Adaptive deployment example: a multi-exit model ladder deployed under the
// firmware's energy policy, simulated over an office day with bursts of
// user activity. When the supercap runs high the firmware spends energy on
// the deep exit; under pressure it degrades to shallow exits instead of
// refusing — the HarvNet-style behaviour layered on the SolarML platform.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"solarml/internal/firmware"
	"solarml/internal/nn"
)

func main() {
	cfg := firmware.DefaultConfig()
	// A dim corner of the office with a demanding user: harvesting cannot
	// fund every interaction through the deep exit.
	cfg.Lux = firmware.OfficeDay(120)
	cfg.InitialV = 2.02
	cfg.ExitMACs = []nn.KindMACs{
		nn.KindMACs{}.With(nn.KindConv, 40_000).With(nn.KindDense, 5_000),   // shallow, ~100 µJ
		nn.KindMACs{}.With(nn.KindConv, 200_000).With(nn.KindDense, 20_000), // mid, ~500 µJ
		nn.KindMACs{}.With(nn.KindConv, 900_000).With(nn.KindDense, 60_000), // deep, ~2.2 mJ
	}
	sim, err := firmware.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// A demanding day: one interaction per ≈25 s for 12 hours.
	day := 12 * 3600.0
	rng := rand.New(rand.NewSource(3))
	events := firmware.PoissonArrivals(rng, day, 25)
	stats, err := sim.Run(day, events)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(stats.Summary())
	fmt.Printf("completion rate %.1f%%\n\n", stats.Rate(firmware.Completed)*100)

	fmt.Println("exit usage over the day:")
	names := []string{"shallow", "mid", "deep"}
	for k := range cfg.ExitMACs {
		fmt.Printf("  exit %d (%s): %d sessions\n", k, names[k], stats.ExitCounts[k])
	}

	// Hour-by-hour view: which exits ran as the light (and stored energy)
	// changed across the day.
	fmt.Println("\nhourly breakdown (completions by exit, rejections):")
	type hour struct {
		exits [3]int
		rej   int
	}
	hours := make([]hour, 12)
	for _, e := range stats.Events {
		h := int(e.T / 3600)
		if h >= 12 {
			h = 11
		}
		switch e.Outcome {
		case firmware.Completed:
			if e.Exit >= 0 && e.Exit < 3 {
				hours[h].exits[e.Exit]++
			}
		case firmware.RejectedVTheta, firmware.BrownOut,
			firmware.BlockedLowSupercap, firmware.BlockedWeakLight:
			hours[h].rej++
		}
	}
	fmt.Println("  hour  shallow  mid  deep  not-served")
	for h, v := range hours {
		fmt.Printf("  %4d  %7d  %3d  %4d  %10d\n", h, v.exits[0], v.exits[1], v.exits[2], v.rej)
	}
}
