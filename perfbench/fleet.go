package main

import (
	"fmt"
	"time"

	"solarml/internal/dataset"
	"solarml/internal/firmware"
	"solarml/internal/nas"
	"solarml/internal/nn"
	"solarml/internal/quant"
)

// Fleet sizes: each operation simulates fleetDevices devices for one day,
// under one seeded deployment condition, and fleetRound fleets make a round.
const (
	fleetDevices = 32
	fleetDayS    = 24 * 3600.0
	fleetRound   = 8
)

// fleetCase is one seeded deployment condition.
type fleetCase struct {
	plateauLux, meanGapS, initialV float64
	seed                           int64
}

// fleetCaseAt returns condition i of the seed's stream: every operation
// simulates a different fleet, so a run averages over many conditions.
// The conditions are centred on cmd/lifetime's defaults: the plateau and
// the mean gap between interactions are drawn within ±50% of 500 lux and
// 600 s, the initial voltage within ±0.2 V of 2.2 V, which keeps it at or
// above the 2.0 V inference threshold V_θ.
func fleetCaseAt(seed int64, i int) fleetCase {
	rng := inputRand(seed, i)
	return fleetCase{
		plateauLux: 500 * (0.5 + rng.Float64()),
		meanGapS:   600 * (0.5 + rng.Float64()),
		initialV:   2.2 + 0.2*(2*rng.Float64()-1),
		seed:       rng.Int63n(1 << 40),
	}
}

// fleetKey is the part of a fleet outcome the replay check compares.
type fleetKey struct {
	interactions, completed, brownOuts int
	harvestedJ, consumedJ, finalV      float64
}

type fleetBench struct {
	seed  int64
	base  firmware.Config
	trace bool
}

// fleetWorkload simulates fleets of the cmd/deploy default model under
// office lighting: each device runs the event-driven lifetime core over its
// own Poisson interaction stream. Set-up derives the deployment (sensing
// configuration and MACs per layer kind) from the model.
func fleetWorkload(seed int64, trace bool) (func() (bench, error), error) {
	return func() (bench, error) {
		cand, err := deployCandidate()
		if err != nil {
			return nil, err
		}
		net, err := cand.Arch.Build()
		if err != nil {
			return nil, fmt.Errorf("build deploy model: %w", err)
		}
		base := firmware.DefaultConfig()
		base.Gesture = cand.Gesture
		base.InferMACs = net.MACsByKind()
		if _, err := firmware.New(base); err != nil {
			return nil, fmt.Errorf("deployment config: %w", err)
		}
		return &fleetBench{seed: seed, base: base, trace: trace}, nil
	}, nil
}

// run simulates fleet i of the stream on the given number of workers
// (0 = every core) and checks its books.
func (f *fleetBench) run(i, workers int) (fleetKey, error) {
	c := fleetCaseAt(f.seed, i)
	cfg := f.base
	cfg.Lux = firmware.OfficeDay(c.plateauLux)
	cfg.InitialV = c.initialV
	st, err := firmware.RunFleet(firmware.FleetConfig{
		Base: cfg, Devices: fleetDevices, DurationS: fleetDayS, MeanGapS: c.meanGapS,
		Seed: c.seed, Workers: workers,
	})
	if err != nil {
		return fleetKey{}, fmt.Errorf("fleet %d: %w", i, err)
	}
	sum := 0
	for _, n := range st.Counts {
		sum += n
	}
	switch {
	case st.Devices != fleetDevices || int(st.Dists.Interactions.Count()) != fleetDevices:
		return fleetKey{}, wrongf("fleet %d: %d devices, %d distribution samples", i, st.Devices, st.Dists.Interactions.Count())
	case sum != st.Interactions:
		return fleetKey{}, wrongf("fleet %d: outcomes sum to %d of %d interactions", i, sum, st.Interactions)
	case !(st.HarvestedJ >= 0) || !(st.ConsumedJ > 0) || !(st.FinalVMean > 0):
		return fleetKey{}, wrongf("fleet %d: harvested %v J, consumed %v J, final %v V", i, st.HarvestedJ, st.ConsumedJ, st.FinalVMean)
	}
	return fleetKey{st.Interactions, st.Counts[firmware.Completed], st.Counts[firmware.BrownOut],
		st.HarvestedJ, st.ConsumedJ, st.FinalVMean}, nil
}

func (f *fleetBench) measure(window time.Duration) tally {
	var got []fleetKey
	var interactions, completed, brownOuts int
	op := func(i int) (int, error) {
		k, err := f.run(i, 0)
		got = append(got, k)
		if err != nil {
			return 0, err
		}
		interactions += k.interactions
		completed += k.completed
		brownOuts += k.brownOuts
		return fleetDevices * int(fleetDayS/86400), nil
	}
	warm := warmUp(window, op)
	got, interactions, completed, brownOuts = nil, 0, 0, 0
	t := closedLoop(window, fleetRound, op)
	t.addCounts(warm)
	if f.trace {
		t.layers = map[string]float64{
			"fleet_interactions_per_device_day": float64(interactions) / float64(t.items()),
			"fleet_completed_pct":               pct(float64(completed), float64(interactions)),
			"fleet_brownout_pct":                pct(float64(brownOuts), float64(interactions)),
		}
	}
	// Replay the first and last fleets on one worker: fleets are
	// worker-count independent, so the books must match exactly.
	for _, i := range []int{0, len(got) - 1} {
		k, err := f.run(i, 1)
		if err == nil && k != got[i] {
			err = wrongf("fleet %d: replay gave %+v, measured %+v", i, k, got[i])
		}
		t.attempted++
		t.count(err)
	}
	return t
}

func (f *fleetBench) close() {}

// deployCandidate returns cmd/deploy's default candidate, the model the
// fleet and serve workloads deploy, with its input shape bound.
func deployCandidate() (*nas.Candidate, error) {
	c := &nas.Candidate{Task: nas.TaskGesture,
		Gesture: dataset.GestureConfig{Channels: 6, RateHz: 80, Quant: quant.Config{Res: quant.Int, Bits: 8}},
		Arch: &nn.Arch{Body: []nn.LayerSpec{
			{Kind: nn.KindConv, Out: 6, K: 3, Stride: 1, Pad: 1},
			{Kind: nn.KindReLU},
			{Kind: nn.KindMaxPool, K: 2},
			{Kind: nn.KindDense, Out: 32},
			{Kind: nn.KindReLU},
		}}}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("deploy candidate: %w", err)
	}
	return c, nil
}
