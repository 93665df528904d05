package firmware

import (
	"fmt"
	"math"
	"sort"

	"solarml/internal/harvest"
)

// The fixed-step integrator below is the pre-event-queue simulator. No
// production code runs it; it is the oracle the event-driven Run is pinned
// against (equivalence_test.go, knot_test.go) and the throughput baseline
// of BenchmarkFleetDeviceYearsFixedStep.

// charge advances the harvester from t0 to t1 with the lighting profile,
// in ≤stepS chunks at midpoint illuminance, and returns the harvested
// energy. During a session (sensing=true) the user's hand additionally
// shadows part of the array.
func (s *Simulator) charge(t0, t1, stepS float64, sensing bool) float64 {
	harvested := 0.0
	for t := t0; t < t1; {
		dt := math.Min(stepS, t1-t)
		before := s.harv.Cap.Energy()
		if sensing {
			chargeShaded(s.harv, s.cfg.Lux.Lux(t+dt/2), dt)
		} else {
			s.harv.Charge(s.cfg.Lux.Lux(t+dt/2), dt, false)
		}
		if gained := s.harv.Cap.Energy() - before; gained > 0 {
			harvested += gained
		}
		t += dt
	}
	return harvested
}

// chargeShaded is the harvester's fixed-step charge while the user's hand
// shadows the array during a session (40% of the cells at 80% depth,
// sensing cells switched out, as the event-driven Run charges them): the
// shaded input power is deposited for dt, then the cap leaks, and the
// harvester books the step as harvest.Harvester.Charge does.
func chargeShaded(h *harvest.Harvester, lux, dt float64) {
	p := h.Array.HarvestPowerShaded(lux, 0.4, 0.8, true)*h.Efficiency - h.QuiescentW
	if p < 0 {
		p = 0
	}
	before := h.Cap.Energy()
	h.Cap.AddEnergy(p * dt)
	stored := h.Cap.Energy()
	h.Cap.Leak(dt)
	h.Book(stored-before, stored-h.Cap.Energy(), p)
}

// RunFixedStep simulates `duration` seconds with user interactions at the
// given times (need not be sorted), advancing the charge ODE in fixed
// ≤stepS chunks at midpoint illuminance (stepS ≤ 0 selects the historical
// 60 s).
func (s *Simulator) RunFixedStep(duration float64, eventTimes []float64, stepS float64) (*Stats, error) {
	if stepS <= 0 {
		stepS = 60
	}
	times := append([]float64(nil), eventTimes...)
	sort.Float64s(times)
	stats := s.newStats(duration)
	now := 0.0
	baseCost := s.sessionCostFor(s.cfg.InferMACs)
	session := func(durS float64) float64 {
		h := s.charge(now, now+durS, stepS, true)
		now += durS
		return h
	}
	for _, et := range times {
		if et < 0 || et > duration {
			return nil, fmt.Errorf("firmware: event time %.1f outside [0, %.1f]", et, duration)
		}
		stats.HarvestedJ += s.charge(now, et, stepS, false)
		now = et
		s.interact(et, baseCost, stats, session)
	}
	stats.HarvestedJ += s.charge(now, duration, stepS, false)
	stats.FinalV = s.harv.Cap.V
	s.foldEnergy()
	return stats, nil
}

// runFleetFixedStep is RunFleet on the fixed-step oracle: device i runs
// RunFixedStep over the same fleetRng(Seed+i) arrivals, fanned over the
// same pool, so outcomes and throughput compare with the event core's. It
// aggregates the interaction and outcome counts.
func runFleetFixedStep(fc FleetConfig, stepS float64) (*FleetStats, error) {
	workers := FleetWorkers(fc.Workers)
	results := make([]*Stats, fc.Devices)
	errs := make([]error, fc.Devices)
	grain := (fc.Devices + workers - 1) / workers
	fleetPool.For(fc.Devices, grain, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			cfg := fc.Base
			cfg.Obs = nil
			dev, err := New(cfg)
			if err != nil {
				errs[i] = err
				return
			}
			dev.leanStats = true
			times := PoissonArrivals(fleetRng(fc.Seed+int64(i)), fc.DurationS, fc.MeanGapS)
			results[i], errs[i] = dev.RunFixedStep(fc.DurationS, times, stepS)
		}
	})
	agg := &FleetStats{Devices: fc.Devices}
	for i, st := range results {
		if errs[i] != nil {
			return nil, fmt.Errorf("firmware: fleet device %d: %w", i, errs[i])
		}
		agg.Interactions += st.Interactions
		for o, n := range st.Counts {
			agg.Counts[o] += n
		}
	}
	return agg, nil
}
