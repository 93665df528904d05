package firmware

import (
	"testing"

	"solarml/internal/obs"
	"solarml/internal/obs/energy"
	"solarml/internal/obs/fleetobs"
)

// benchFleet runs one fleet configuration and reports simulated
// device-years per wall-clock second — the fleet-scale throughput figure
// of merit. fixedStep > 0 selects the fixed-step oracle; 0 the event core;
// instrumented attaches the full fleet observability stack (a ledger over a
// registry, the inspector; distribution capture runs unconditionally).
func benchFleet(b *testing.B, devices int, fixedStep float64, instrumented bool) {
	base := DefaultConfig()
	base.Lux = OfficeDay(500)
	const hours = 12.0
	fc := FleetConfig{
		Base:      base,
		Devices:   devices,
		DurationS: hours * 3600,
		MeanGapS:  600,
		Seed:      1,
	}
	if instrumented {
		fc.Base.Energy = energy.NewLedger(obs.NewRegistry())
		fc.Inspect = fleetobs.NewInspector("devices", devices, FleetWorkers(0))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if fixedStep > 0 {
			_, err = runFleetFixedStep(fc, fixedStep)
		} else {
			_, err = RunFleet(fc)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	deviceYears := float64(b.N) * float64(devices) * hours / (24 * 365)
	b.ReportMetric(deviceYears/b.Elapsed().Seconds(), "device-years/sec")
}

// BenchmarkFleetDeviceYears measures the event-driven fleet: a device-day
// is a few hundred events, each an O(1) closed-form ODE advance.
func BenchmarkFleetDeviceYears(b *testing.B) { benchFleet(b, 32, 0, false) }

// BenchmarkFleetDeviceYearsInstrumented is the same fleet with the full
// observability stack attached — the fleet joule ledger, live inspector,
// per-device distributions. The delta against BenchmarkFleetDeviceYears is
// the total observability overhead.
func BenchmarkFleetDeviceYearsInstrumented(b *testing.B) { benchFleet(b, 32, 0, true) }

// BenchmarkFleetDeviceYearsFixedStep is the accuracy-matched baseline: the
// fixed-step integrator at 1 s steps (the convergence and knot-regression
// tests show the historical 60 s chunks are not accuracy-comparable near
// profile discontinuities). A device-day is 43 200 chunk steps.
func BenchmarkFleetDeviceYearsFixedStep(b *testing.B) { benchFleet(b, 32, 1, false) }
