package experiments

import (
	"sync/atomic"

	"solarml/internal/compute"
	"solarml/internal/enas"
	"solarml/internal/harvnet"
	"solarml/internal/munas"
	"solarml/internal/obs"
)

// telemetry holds the package's recorder and registry. The experiment
// runners are plain functions shared by the CLI, benchmarks, and tests, so
// the sink attaches process-wide rather than threading through every
// signature; the atomic pointers keep attachment race-free against
// benchmark goroutines. A nil sink (the default) costs nothing.
var telemetry struct {
	rec atomic.Pointer[obs.Recorder]
	reg atomic.Pointer[obs.Registry]
	cmp atomic.Pointer[compute.Context]
}

// SetObs attaches a recorder and metrics registry to every subsequent
// experiment run (either may be nil). Pass nil, nil to detach. Runners wrap
// themselves in experiments.<name> spans and propagate the sink into the
// eNAS searches and platform sessions they launch.
func SetObs(rec *obs.Recorder, reg *obs.Registry) {
	telemetry.rec.Store(rec)
	telemetry.reg.Store(reg)
}

// recorder returns the attached recorder (nil when detached).
func recorder() *obs.Recorder { return telemetry.rec.Load() }

// registry returns the attached registry (nil when detached).
func registry() *obs.Registry { return telemetry.reg.Load() }

// SetCompute attaches a compute context to every subsequent experiment run:
// the networks the runners train use its backend. Pass nil to restore the
// serial default.
func SetCompute(ctx *compute.Context) { telemetry.cmp.Store(ctx) }

// computeCtx returns the attached compute context (nil when detached).
func computeCtx() *compute.Context { return telemetry.cmp.Load() }

// instrument attaches the package sink to an eNAS search configuration.
func instrument(cfg enas.Config) enas.Config {
	cfg.Obs = recorder()
	cfg.Metrics = registry()
	return cfg
}

// instrumentMunas attaches the package sink to a μNAS search configuration.
func instrumentMunas(cfg munas.Config) munas.Config {
	cfg.Obs = recorder()
	cfg.Metrics = registry()
	return cfg
}

// instrumentHarvnet attaches the package sink to a HarvNet search
// configuration.
func instrumentHarvnet(cfg harvnet.Config) harvnet.Config {
	cfg.Obs = recorder()
	cfg.Metrics = registry()
	return cfg
}
