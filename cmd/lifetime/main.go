// Command lifetime runs a long-horizon deployment simulation: the platform
// harvests under a lighting profile while user interactions arrive at
// random, and the firmware's §III-B energy policy decides which complete,
// which are rejected at the V_θ check, and which brown out.
//
// Usage:
//
//	lifetime [-hours 12] [-profile office|constant] [-lux 500]
//	         [-gap 600] [-vtheta 2.0] [-v0 2.2] [-seed 1] [-trace]
//	         [-devices 1] [-workers 0] [-fleet-csv fleet.csv]
//	         [-trace-out run.jsonl] [-metrics-out metrics.json]
//	         [-metrics-interval 1s] [-pprof localhost:6060]
//
// With -devices N > 1 the command simulates a fleet: N independent
// platforms (device i draws its Poisson arrival stream from seed+i) fanned
// across -workers cores on the event-driven core, with outcome counters
// and the joule ledger aggregated across the fleet. Per-interaction
// tracing and spans are single-device features and are skipped. Each
// device books its energy privately and the fleet folds the devices into
// the same joule ledger, in device order, so the energy.* series advance
// while the fleet runs and are worker-count independent. Per-device
// outcome distributions land in the fleet.* histograms (and -fleet-csv
// writes them as CSV), and with -pprof set the run serves a live inspector
// on /debug/fleet: progress JSON, or an SSE stream with ?watch=1 — see
// DESIGN.md §14.
//
// -trace-out records the run as a JSONL obs trace — manifest, a
// lifetime.run span, one firmware.session span per booted interaction with
// energy-attributed detect/sense/infer children, one lifetime.interaction
// event per arrival with its outcome/voltage/energy, and outcome counters
// plus the joule ledger's energy.* series in the metrics snapshots —
// readable with cmd/obs-report (see its -energy flag) like any search
// trace. A final per-account energy summary prints after the run.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"time"

	"solarml/internal/firmware"
	"solarml/internal/nn"
	"solarml/internal/obs"
	obscli "solarml/internal/obs/cli"
	"solarml/internal/obs/energy"
	"solarml/internal/obs/fleetobs"
)

func main() {
	hours := flag.Float64("hours", 12, "simulated duration in hours")
	profile := flag.String("profile", "office", "lighting: office or constant")
	lux := flag.Float64("lux", 500, "plateau (office) or constant illuminance")
	gap := flag.Float64("gap", 600, "mean seconds between user interactions")
	vtheta := flag.Float64("vtheta", 2.0, "firmware inference threshold V_θ")
	v0 := flag.Float64("v0", 2.2, "initial supercap voltage")
	seed := flag.Int64("seed", 1, "random seed")
	trace := flag.Bool("trace", false, "print every interaction")
	ladder := flag.Bool("ladder", false, "use a 3-rung multi-exit model ladder (HarvNet-style degradation)")
	devices := flag.Int("devices", 1, "fleet size; >1 simulates independent seeded devices in parallel")
	workers := flag.Int("workers", 0, "fleet worker cores (0 = all); results are worker-count independent")
	fleetCSV := flag.String("fleet-csv", "", "write the fleet's per-device distributions (histograms + quantiles) to this CSV file")
	obsFlags := obscli.AddFlags(nil)
	flag.Parse()

	if err := mainErr(obsFlags, *hours, *profile, *lux, *gap, *vtheta, *v0, *seed, *trace, *ladder, *devices, *workers, *fleetCSV); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func mainErr(obsFlags *obscli.Flags, hours float64, profile string, lux, gap, vtheta, v0 float64,
	seed int64, trace, ladder bool, devices, workers int, fleetCSV string) (err error) {
	sess, err := obsFlags.Open()
	if err != nil {
		return err
	}
	defer sess.CloseWith(&err)
	sess.Manifest("lifetime", seed, map[string]any{
		"hours": hours, "profile": profile, "lux": lux, "gap": gap,
		"vtheta": vtheta, "v0": v0, "ladder": ladder, "devices": devices,
	})

	// The joule ledger publishes into the session registry on every sampler
	// tick and at close, so metrics snapshots (and a live /metrics scrape)
	// carry the energy.* series alongside the outcome counters. A single
	// device books it when its run ends; a fleet as each device finishes.
	led := energy.NewLedger(sess.Reg)
	sess.OnSample(led.Sync)

	cfg := firmware.DefaultConfig()
	cfg.VTheta = vtheta
	cfg.InitialV = v0
	cfg.Obs = sess.Rec
	cfg.Energy = led
	if ladder {
		cfg.ExitMACs = []nn.KindMACs{
			nn.KindMACs{}.With(nn.KindConv, 40_000).With(nn.KindDense, 5_000),
			nn.KindMACs{}.With(nn.KindConv, 200_000).With(nn.KindDense, 20_000),
			nn.KindMACs{}.With(nn.KindConv, 900_000).With(nn.KindDense, 60_000),
		}
	}
	if profile == "office" {
		cfg.Lux = firmware.OfficeDay(lux)
	} else {
		cfg.Lux = firmware.ConstantLux(lux)
	}
	duration := hours * 3600
	if devices > 1 {
		return runFleet(sess, cfg, devices, workers, duration, hours, gap, seed, fleetCSV)
	}
	sim, err := firmware.New(cfg)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	events := firmware.PoissonArrivals(rng, duration, gap)

	sp := sess.Rec.StartSpan("lifetime.run",
		obs.F64("hours", hours), obs.Str("profile", profile), obs.F64("lux", lux),
		obs.Int("arrivals", len(events)))
	stats, err := sim.Run(duration, events)
	if err != nil {
		sp.End(obs.Str("error", err.Error()))
		return err
	}
	for _, e := range stats.Events {
		sess.Rec.Event("lifetime.interaction",
			obs.F64("t_s", e.T), obs.F64("v", e.V),
			obs.Str("outcome", e.Outcome.String()), obs.F64("energy_j", e.EnergyJ))
		sess.Reg.Counter("lifetime." + e.Outcome.String()).Inc()
	}
	sess.Reg.Gauge("lifetime.completion_rate").Set(stats.Rate(firmware.Completed))
	sp.End(obs.Int("interactions", len(stats.Events)),
		obs.F64("completion_rate", stats.Rate(firmware.Completed)))

	fmt.Println(stats.Summary())
	fmt.Printf("completion rate: %.1f%%\n", stats.Rate(firmware.Completed)*100)
	fmt.Print(led.Summary())
	if slices.ContainsFunc(stats.ExitCounts, func(n int) bool { return n > 0 }) {
		fmt.Print("exit usage:")
		for k := 0; k < len(cfg.ExitMACs); k++ {
			fmt.Printf("  exit %d ×%d", k, stats.ExitCounts[k])
		}
		fmt.Println()
	}
	if trace {
		for _, e := range stats.Events {
			fmt.Printf("  t=%7.0fs  V=%.3f  %-20s %6.0f µJ\n",
				e.T, e.V, e.Outcome, e.EnergyJ*1e6)
		}
	}
	return nil
}

// runFleet simulates a multi-device deployment on the event-driven core
// and prints the aggregate: outcome counters, per-device distribution
// quantiles, the fleet energy ledger (cfg.Energy), and the wall-clock
// simulation throughput in device-years per second. With -pprof set,
// progress streams live on /debug/fleet while the fleet runs.
func runFleet(sess *obscli.Session, cfg firmware.Config,
	devices, workers int, duration, hours, gap float64, seed int64, fleetCSV string) error {
	led := cfg.Energy
	fc := firmware.FleetConfig{
		Base:      cfg,
		Devices:   devices,
		DurationS: duration,
		MeanGapS:  gap,
		Seed:      seed,
		Workers:   workers,
	}
	if sess.Mounted() {
		in := fleetobs.NewInspector("devices", devices, firmware.FleetWorkers(workers))
		in.SetAccounts(led.AccountTotals)
		sess.Mount("/debug/fleet", in.Handler())
		fc.Inspect = in
		defer in.Finish()
	}
	sp := sess.Rec.StartSpan("lifetime.fleet",
		obs.Int("devices", devices), obs.F64("hours", hours))
	start := time.Now()
	fs, err := firmware.RunFleet(fc)
	elapsed := time.Since(start)
	if err != nil {
		sp.End(obs.Str("error", err.Error()))
		return err
	}
	fc.Inspect.Finish()
	rate := fs.DeviceSeconds / (365 * 24 * 3600) / elapsed.Seconds()
	sess.Reg.Gauge("lifetime.fleet.completion_rate").Set(fs.Rate(firmware.Completed))
	sess.Reg.Gauge("lifetime.fleet.device_years_per_sec").Set(rate)
	fs.Dists.PublishTo(sess.Reg)
	sp.End(obs.Int("interactions", fs.Interactions), obs.F64("device_years_per_sec", rate))

	if fleetCSV != "" {
		f, err := os.Create(fleetCSV)
		if err != nil {
			return err
		}
		if err := fs.Dists.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	fmt.Println(fs.Summary())
	fmt.Printf("completion rate: %.1f%%\n", fs.Rate(firmware.Completed)*100)
	fmt.Printf("simulated %.2f device-years in %s (%.1f device-years/sec)\n",
		fs.DeviceSeconds/(365*24*3600), elapsed.Round(10*time.Microsecond), rate)
	fmt.Print(led.Summary())
	return nil
}
