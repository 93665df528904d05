package firmware

import (
	"fmt"
	"io"

	"solarml/internal/obs"
)

// Registry histogram names for the per-device fleet distributions.
const (
	// HistFleetInteractions counts interactions survived per device.
	HistFleetInteractions = "fleet.device_interactions"
	// HistFleetBrownOuts counts brown-outs per device.
	HistFleetBrownOuts = "fleet.device_brownouts"
	// HistFleetHarvestedJ is the joules harvested per device.
	HistFleetHarvestedJ = "fleet.device_harvested_j"
	// HistFleetFinalV is the supercap voltage per device at the horizon.
	HistFleetFinalV = "fleet.device_final_v"
)

// Fixed bucket ladders for the per-device distributions. Geometric ladders
// cover minutes-long smoke fleets and device-year runs with the same flat
// arrays; quantiles interpolate inside buckets (obs.Dist).
var (
	fleetInteractionBounds = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1e3, 2.5e3, 5e3, 1e4, 1e5}
	fleetBrownOutBounds    = []float64{0, 1, 2, 5, 10, 25, 50, 100, 250, 1e3}
	fleetHarvestedBounds   = []float64{1e-3, 1e-2, 0.1, 0.5, 1, 5, 10, 50, 100, 1e3}
	fleetFinalVBounds      = []float64{0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4, 4.5, 5, 6}
)

// FleetDists holds the fleet's per-device outcome distributions: where the
// fleet aggregate says "2 % of interactions browned out", the distributions
// say whether that is every device browning out rarely or a dark-corner
// cohort browning out constantly. Capture is flat-array and allocation-free
// per device (obs.Dist), so ten-million-device fleets pay a few
// hundred bytes total.
type FleetDists struct {
	Interactions obs.Dist
	BrownOuts    obs.Dist
	HarvestedJ   obs.Dist
	FinalV       obs.Dist
}

// NewFleetDists returns empty distributions over the fixed fleet ladders.
func NewFleetDists() FleetDists {
	return FleetDists{
		Interactions: obs.NewDist(fleetInteractionBounds),
		BrownOuts:    obs.NewDist(fleetBrownOutBounds),
		HarvestedJ:   obs.NewDist(fleetHarvestedBounds),
		FinalV:       obs.NewDist(fleetFinalVBounds),
	}
}

// Observe records one device's run into the distributions.
func (d *FleetDists) Observe(st *Stats) {
	if d == nil || st == nil {
		return
	}
	d.Interactions.Observe(float64(st.Interactions))
	d.BrownOuts.Observe(float64(st.Counts[BrownOut]))
	d.HarvestedJ.Observe(st.HarvestedJ)
	d.FinalV.Observe(st.FinalV)
}

// PublishTo merges the distributions into the registry under the fleet.*
// histogram names, so they ride along in metrics snapshots, /metrics
// scrapes, and obs-report -fleet. Call once per run.
func (d *FleetDists) PublishTo(reg *obs.Registry) {
	if d == nil || reg == nil {
		return
	}
	d.Interactions.PublishTo(reg, HistFleetInteractions)
	d.BrownOuts.PublishTo(reg, HistFleetBrownOuts)
	d.HarvestedJ.PublishTo(reg, HistFleetHarvestedJ)
	d.FinalV.PublishTo(reg, HistFleetFinalV)
}

// WriteCSV writes all four distributions as one artifact (header included).
func (d *FleetDists) WriteCSV(w io.Writer) error {
	if d == nil {
		return nil
	}
	if err := obs.WriteDistCSVHeader(w); err != nil {
		return err
	}
	for _, row := range []struct {
		name string
		dist *obs.Dist
	}{
		{"interactions", &d.Interactions},
		{"brownouts", &d.BrownOuts},
		{"harvested_j", &d.HarvestedJ},
		{"final_v", &d.FinalV},
	} {
		if err := row.dist.WriteCSV(w, row.name); err != nil {
			return err
		}
	}
	return nil
}

// quantileLine renders one distribution's p50/p95/p99 with the given format
// verb per value.
func quantileLine(d *obs.Dist, format string) string {
	return fmt.Sprintf(format+"/"+format+"/"+format,
		d.Quantile(0.50), d.Quantile(0.95), d.Quantile(0.99))
}
