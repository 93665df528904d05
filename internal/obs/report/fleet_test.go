package report_test

import (
	"bytes"
	"strings"
	"testing"

	"solarml/internal/obs"
	"solarml/internal/obs/report"
)

// recordFleet produces a trace the way cmd/lifetime's fleet path does:
// per-device distributions published as fleet.* histograms plus the fleet
// throughput gauges, flushed into the final metrics snapshot.
func recordFleet(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec := obs.NewRecorder(&buf)
	reg := obs.NewRegistry()
	rec.WriteManifest(obs.Manifest{Tool: "lifetime", Seed: 1})

	interactions := obs.NewDist([]float64{10, 100, 1000})
	finalV := obs.NewDist([]float64{1, 2, 3, 4})
	for d := 0; d < 16; d++ {
		interactions.Observe(float64(40 + d*10))
		finalV.Observe(2.0 + float64(d)*0.05)
	}
	interactions.PublishTo(reg, "fleet.device_interactions")
	finalV.PublishTo(reg, "fleet.device_final_v")
	reg.Gauge("lifetime.fleet.completion_rate").Set(0.93)
	reg.Gauge("lifetime.fleet.device_years_per_sec").Set(12.5)

	rec.FlushMetrics(reg)
	rec.Finish("ok")
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFleetDistributions(t *testing.T) {
	tr, err := report.Read(bytes.NewReader(recordFleet(t)))
	if err != nil {
		t.Fatal(err)
	}
	dists := tr.FleetDistributions()
	if len(dists) != 2 {
		t.Fatalf("got %d fleet distributions, want 2", len(dists))
	}
	if dists[0].Name != "fleet.device_final_v" || dists[1].Name != "fleet.device_interactions" {
		t.Fatalf("unexpected order: %q, %q", dists[0].Name, dists[1].Name)
	}
	inter := dists[1].Snap
	if inter.Count != 16 {
		t.Fatalf("interactions count = %d", inter.Count)
	}
	if p50 := inter.Quantile(0.5); p50 < 10 || p50 > 1000 {
		t.Fatalf("p50 = %g out of bucket range", p50)
	}
}

func TestWriteFleetReport(t *testing.T) {
	tr, err := report.Read(bytes.NewReader(recordFleet(t)))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := tr.WriteFleetReport(&out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"fleet report:",
		"completion rate 93.0%",
		"12.50 device-years/sec",
		"device_interactions",
		"device_final_v",
		"p99",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("fleet report missing %q:\n%s", want, s)
		}
	}
}

// TestWriteFleetReportNonFleet checks a trace without fleet histograms gets
// the notice instead of an empty table.
func TestWriteFleetReportNonFleet(t *testing.T) {
	tr, err := report.Read(bytes.NewReader(recordEnergy(t)))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := tr.WriteFleetReport(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no fleet.* histograms") {
		t.Fatalf("missing non-fleet notice:\n%s", out.String())
	}
}
