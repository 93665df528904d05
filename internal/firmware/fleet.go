package firmware

import (
	"fmt"
	"math/rand"
	"sync"

	"solarml/internal/compute"
	"solarml/internal/obs/energy"
	"solarml/internal/obs/fleetobs"
)

// FleetConfig parameterizes a multi-device lifetime simulation: N
// independent platforms, each with its own supercap state and seeded
// Poisson arrival stream, sharing one deployment configuration.
type FleetConfig struct {
	// Base is the per-device configuration. Base.Obs is ignored — per-
	// interaction spans do not scale to fleets. Base.Energy, when set, is
	// the fleet's ledger: each device books into its own plain books, and
	// RunFleet folds every finished device's books into it in device
	// order, so the ledger advances while the fleet runs and its totals
	// are the same for every worker count. Its supercap and harvest-rate
	// gauges are per-device levels with no fleet-wide meaning and are left
	// alone.
	Base Config
	// Devices is the fleet size.
	Devices int
	// DurationS is the simulated horizon per device, in seconds.
	DurationS float64
	// MeanGapS is the mean inter-arrival gap of each device's Poisson
	// interaction stream.
	MeanGapS float64
	// Seed derives the per-device streams: device i draws from Seed+i, so
	// the fleet is reproducible and each device independent.
	Seed int64
	// Workers bounds the simulation parallelism (≤0 uses every core).
	// Results are identical for every worker count: devices are
	// independent and aggregation runs in device order.
	Workers int
	// Inspect, when set, receives per-device completion events for the
	// /debug/fleet live inspector. Size it with FleetWorkers.
	Inspect *fleetobs.Inspector
}

// FleetWorkers returns the worker count RunFleet will actually use for the
// requested value (≤0 means every core) — the lane count to size an
// Inspector with so each fleet worker gets a private lane.
func FleetWorkers(requested int) int {
	if requested <= 0 || requested > fleetPool.Workers() {
		return fleetPool.Workers()
	}
	return requested
}

// FleetStats aggregates a fleet run. Per-event detail is dropped — at
// fleet scale the outcome counters and energy totals are the story.
type FleetStats struct {
	Devices           int
	DeviceSeconds     float64
	Interactions      int
	Counts            [numOutcomes]int
	ExitCounts        []int // completed sessions per ladder rung; nil without a ladder
	VThetaUpCrossings int
	HarvestedJ        float64
	ConsumedJ         float64
	// FinalVMean is the fleet-average supercap voltage at the horizon.
	FinalVMean float64
	// Dists are the per-device outcome distributions — the spread behind
	// the fleet means. Integer-count capture in device order keeps them
	// bit-identical across worker counts.
	Dists FleetDists
}

// Rate returns the fraction of all interactions with the given outcome.
func (f *FleetStats) Rate(outcome EventOutcome) float64 {
	if f.Interactions == 0 {
		return 0
	}
	return float64(f.Counts[outcome]) / float64(f.Interactions)
}

// Summary renders a one-paragraph fleet report.
func (f *FleetStats) Summary() string {
	out := fmt.Sprintf("%d devices × %.1f h: %d interactions: ",
		f.Devices, f.DeviceSeconds/float64(f.Devices)/3600, f.Interactions)
	for _, o := range []EventOutcome{Completed, RejectedVTheta, BrownOut, BlockedLowSupercap, BlockedWeakLight} {
		if n := f.Counts[o]; n > 0 {
			out += fmt.Sprintf("%d %s, ", n, o)
		}
	}
	out += fmt.Sprintf("harvested %.1f J, consumed %.1f J, mean final %.2f V",
		f.HarvestedJ, f.ConsumedJ, f.FinalVMean)
	if f.Dists.Interactions.Count() > 0 {
		out += fmt.Sprintf(
			"\nper-device p50/p95/p99: interactions %s, brown-outs %s, harvested %s J, final %s V",
			quantileLine(&f.Dists.Interactions, "%.0f"),
			quantileLine(&f.Dists.BrownOuts, "%.0f"),
			quantileLine(&f.Dists.HarvestedJ, "%.2f"),
			quantileLine(&f.Dists.FinalV, "%.2f"))
	}
	return out
}

// fleetPool is the shared worker pool for fleet runs. One persistent pool
// (sized to the machine) serves every RunFleet call; per-call worker
// budgets are enforced through the dispatch grain, so no goroutines leak
// per run.
var fleetPool = compute.NewParallel(0)

// fleetSource is a splitmix64 rand.Source64. Seeding math/rand's default
// source fills a 607-word lagged-Fibonacci table (~50 µs) — on the event
// core that would rival a whole simulated device-day — while splitmix64
// seeds in one word and still gives every device an independent,
// well-mixed stream from consecutive seeds.
type fleetSource struct{ s uint64 }

// Seed implements rand.Source.
func (f *fleetSource) Seed(seed int64) { f.s = uint64(seed) }

// Uint64 implements rand.Source64 (splitmix64 finalizer).
func (f *fleetSource) Uint64() uint64 {
	f.s += 0x9e3779b97f4a7c15
	z := f.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 implements rand.Source.
func (f *fleetSource) Int63() int64 { return int64(f.Uint64() >> 1) }

// fleetRng returns device i's arrival stream generator.
func fleetRng(seed int64) *rand.Rand { return rand.New(&fleetSource{s: uint64(seed)}) }

// fleetDevice is one device's slot in a fleet run: its outcome, and its
// energy books while they wait to be folded.
type fleetDevice struct {
	st    *Stats
	err   error
	books energy.Books
}

// fleetLedger folds finished devices' energy books into the fleet's ledger
// in device order. Workers finish devices out of order, so each device's
// books wait in its slot until every device before it is in; the cursor
// then folds the run of finished devices under one mutex.
type fleetLedger struct {
	led  *energy.Ledger
	mu   sync.Mutex
	next int // first device not yet folded
}

// finish fills device i's slot and folds every device the cursor can now
// reach. Slots are filled under the mutex, so the cursor sees only
// finished devices.
func (f *fleetLedger) finish(devs []fleetDevice, i int, st *Stats, dev *Simulator) {
	f.mu.Lock()
	devs[i].st, devs[i].books = st, dev.energyBooks()
	for f.next < len(devs) && devs[f.next].st != nil {
		f.led.Fold(&devs[f.next].books)
		f.next++
	}
	f.mu.Unlock()
}

// RunFleet simulates fc.Devices independent devices and aggregates their
// outcome counters and energy totals in device order, so the result is
// bit-identical for every worker count.
func RunFleet(fc FleetConfig) (*FleetStats, error) {
	if fc.Devices <= 0 {
		return nil, fmt.Errorf("firmware: fleet needs at least one device, got %d", fc.Devices)
	}
	if fc.DurationS <= 0 {
		return nil, fmt.Errorf("firmware: fleet needs a positive horizon, got %v", fc.DurationS)
	}
	if fc.MeanGapS <= 0 {
		return nil, fmt.Errorf("firmware: fleet needs a positive mean arrival gap, got %v", fc.MeanGapS)
	}
	workers := FleetWorkers(fc.Workers)
	devs := make([]fleetDevice, fc.Devices)
	grain := (fc.Devices + workers - 1) / workers
	// For cuts the devices into this many contiguous chunks, chunk c
	// starting at c*Devices/chunks, and each chunk reports on its own
	// inspector lane.
	chunks := (fc.Devices + grain - 1) / grain
	var fold *fleetLedger
	if fc.Base.Energy != nil {
		fold = &fleetLedger{led: fc.Base.Energy}
	}
	fleetPool.For(fc.Devices, grain, func(i0, i1 int) {
		// The chunk index: the one c with c*Devices/chunks == i0.
		w := (i0*chunks + fc.Devices - 1) / fc.Devices
		for i := i0; i < i1; i++ {
			cfg := fc.Base
			cfg.Obs = nil
			cfg.Energy = nil // the fold below books the device
			dev, err := New(cfg)
			if err != nil {
				devs[i].err = err
				return
			}
			dev.leanStats = true // the per-event log is dropped unread below
			times := PoissonArrivals(fleetRng(fc.Seed+int64(i)), fc.DurationS, fc.MeanGapS)
			st, err := dev.Run(fc.DurationS, times)
			if err != nil {
				devs[i].err = err
				return
			}
			if fold != nil {
				fold.finish(devs, i, st, dev)
			} else {
				devs[i].st = st
			}
			fc.Inspect.Advance(w, 1, fc.DurationS)
		}
	})
	agg := &FleetStats{
		Devices:       fc.Devices,
		DeviceSeconds: float64(fc.Devices) * fc.DurationS,
		Dists:         NewFleetDists(),
	}
	if n := len(fc.Base.ExitMACs); n > 0 {
		agg.ExitCounts = make([]int, n)
	}
	for i := range devs {
		if err := devs[i].err; err != nil {
			return nil, fmt.Errorf("firmware: fleet device %d: %w", i, err)
		}
	}
	for i := range devs {
		st := devs[i].st
		agg.Interactions += st.Interactions
		for o, n := range st.Counts {
			agg.Counts[o] += n
		}
		for k, n := range st.ExitCounts {
			agg.ExitCounts[k] += n
		}
		agg.VThetaUpCrossings += st.VThetaUpCrossings
		agg.HarvestedJ += st.HarvestedJ
		agg.ConsumedJ += st.ConsumedJ
		agg.FinalVMean += st.FinalV
		agg.Dists.Observe(st)
	}
	agg.FinalVMean /= float64(fc.Devices)
	return agg, nil
}
