package firmware

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"solarml/internal/obs"
	"solarml/internal/obs/energy"
	"solarml/internal/obs/fleetobs"
)

func fleetCfg(devices, workers int) FleetConfig {
	base := DefaultConfig()
	base.Lux = OfficeDay(500)
	return FleetConfig{
		Base:      base,
		Devices:   devices,
		DurationS: 2 * 3600,
		MeanGapS:  300,
		Seed:      1,
		Workers:   workers,
	}
}

func TestRunFleetAggregates(t *testing.T) {
	fs, err := RunFleet(fleetCfg(8, 0))
	if err != nil {
		t.Fatal(err)
	}
	if fs.Devices != 8 || fs.DeviceSeconds != 8*2*3600 {
		t.Fatalf("fleet extent wrong: %+v", fs)
	}
	if fs.Interactions == 0 || fs.Counts[Completed] == 0 {
		t.Fatalf("fleet saw no activity: %s", fs.Summary())
	}
	total := 0
	for _, n := range fs.Counts {
		total += n
	}
	if total != fs.Interactions {
		t.Fatalf("outcome counts %d do not cover %d interactions", total, fs.Interactions)
	}
	if fs.HarvestedJ <= 0 || fs.ConsumedJ <= 0 || fs.FinalVMean <= 0 {
		t.Fatalf("fleet energy totals broken: %s", fs.Summary())
	}
	if fs.Rate(Completed) <= 0 {
		t.Fatal("completion rate must be positive")
	}
}

// TestRunFleetDeterministicAcrossWorkers pins the determinism contract:
// devices are independent and aggregation runs in device order, so worker
// count must not change a single bit of the aggregate.
func TestRunFleetDeterministicAcrossWorkers(t *testing.T) {
	one, err := RunFleet(fleetCfg(6, 1))
	if err != nil {
		t.Fatal(err)
	}
	many, err := RunFleet(fleetCfg(6, 4))
	if err != nil {
		t.Fatal(err)
	}
	if one.Interactions != many.Interactions ||
		one.HarvestedJ != many.HarvestedJ ||
		one.ConsumedJ != many.ConsumedJ ||
		one.FinalVMean != many.FinalVMean {
		t.Fatalf("worker count changed the fleet result:\n1: %s\n4: %s", one.Summary(), many.Summary())
	}
	if one.Counts != many.Counts {
		t.Fatalf("outcome counts: %v vs %v", one.Counts, many.Counts)
	}
}

// TestRunFleetMatchesSequentialDevices checks the fleet against hand-rolled
// per-device runs with the same derived seeds.
func TestRunFleetMatchesSequentialDevices(t *testing.T) {
	fc := fleetCfg(3, 2)
	fs, err := RunFleet(fc)
	if err != nil {
		t.Fatal(err)
	}
	wantInteractions := 0
	wantHarvested := 0.0
	for i := 0; i < fc.Devices; i++ {
		dev, err := New(fc.Base)
		if err != nil {
			t.Fatal(err)
		}
		times := PoissonArrivals(fleetRng(fc.Seed+int64(i)), fc.DurationS, fc.MeanGapS)
		st, err := dev.Run(fc.DurationS, times)
		if err != nil {
			t.Fatal(err)
		}
		wantInteractions += len(st.Events)
		wantHarvested += st.HarvestedJ
	}
	if fs.Interactions != wantInteractions {
		t.Fatalf("interactions %d, sequential %d", fs.Interactions, wantInteractions)
	}
	if fs.HarvestedJ != wantHarvested {
		t.Fatalf("harvested %.9f J, sequential %.9f J", fs.HarvestedJ, wantHarvested)
	}
}

func TestRunFleetSharedLedger(t *testing.T) {
	fc := fleetCfg(4, 0)
	led := energy.NewLedger(nil)
	fc.Base.Energy = led
	fs, err := RunFleet(fc)
	if err != nil {
		t.Fatal(err)
	}
	snap := led.Snapshot()
	if snap.HarvestedJ <= 0 {
		t.Fatal("shared ledger booked no harvest income")
	}
	if snap.Account(energy.AccountLeak) <= 0 {
		t.Fatal("shared ledger booked no leak")
	}
	if fs.Counts[Completed] > 0 && snap.Account(energy.AccountInfer) <= 0 {
		t.Fatal("completed sessions must book inference energy")
	}
}

func TestRunFleetValidates(t *testing.T) {
	if _, err := RunFleet(FleetConfig{Devices: 0, DurationS: 10, MeanGapS: 1, Base: DefaultConfig()}); err == nil {
		t.Fatal("zero devices must error")
	}
	if _, err := RunFleet(FleetConfig{Devices: 1, DurationS: 0, MeanGapS: 1, Base: DefaultConfig()}); err == nil {
		t.Fatal("zero horizon must error")
	}
	if _, err := RunFleet(FleetConfig{Devices: 1, DurationS: 10, MeanGapS: 0, Base: DefaultConfig()}); err == nil {
		t.Fatal("zero arrival gap must error")
	}
	bad := fleetCfg(2, 0)
	bad.Base.Lux = nil
	if _, err := RunFleet(bad); err == nil {
		t.Fatal("invalid base config must surface the device error")
	}
}

// TestRunFleetFixedStepBaseline runs the fleet on the fixed-step oracle and
// sanity-checks it against the event-driven fleet on aggregate outcomes.
func TestRunFleetFixedStepBaseline(t *testing.T) {
	fc := fleetCfg(3, 0)
	ev, err := RunFleet(fc)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := runFleetFixedStep(fc, 60)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Interactions != fs.Interactions {
		t.Fatalf("arrival streams diverged: %d vs %d", ev.Interactions, fs.Interactions)
	}
	if ev.Counts[Completed] != fs.Counts[Completed] {
		t.Fatalf("completed counts: event %d vs fixed-step %d", ev.Counts[Completed], fs.Counts[Completed])
	}
}

// TestRunFleetInstrumentedBitIdentical pins the observability contract:
// attaching the fleet ledger, the inspector, and distribution capture must
// not change a single bit of the fleet outcome, across worker counts.
func TestRunFleetInstrumentedBitIdentical(t *testing.T) {
	plain, err := RunFleet(fleetCfg(6, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		fc := fleetCfg(6, workers)
		fc.Base.Energy = energy.NewLedger(obs.NewRegistry())
		fc.Inspect = fleetobs.NewInspector("devices", fc.Devices, FleetWorkers(workers))
		inst, err := RunFleet(fc)
		if err != nil {
			t.Fatal(err)
		}
		fc.Inspect.Finish()
		if inst.Interactions != plain.Interactions ||
			inst.HarvestedJ != plain.HarvestedJ ||
			inst.ConsumedJ != plain.ConsumedJ ||
			inst.FinalVMean != plain.FinalVMean {
			t.Fatalf("instrumentation changed the fleet result (workers=%d):\nplain: %s\ninst:  %s",
				workers, plain.Summary(), inst.Summary())
		}
		if plain.Counts != inst.Counts {
			t.Fatalf("outcome counts: %v vs %v", plain.Counts, inst.Counts)
		}
		// The distributions are integer per-device captures in device
		// order: identical across worker counts.
		for i, want := range plain.Dists.Interactions.Snapshot().Counts {
			if got := inst.Dists.Interactions.Snapshot().Counts[i]; got != want {
				t.Fatalf("interactions dist bucket %d: %d vs %d", i, got, want)
			}
		}
		if fc.Inspect.Status().Done != int64(fc.Devices) {
			t.Fatalf("inspector saw %d devices, want %d", fc.Inspect.Status().Done, fc.Devices)
		}
	}
}

// TestRunFleetInspectorLanes checks that each fleet chunk reports on its
// own inspector lane. Two workers cut 5 devices into chunks of 2 and 3 and
// 7 devices into 3 and 4 (chunk c starts at c*n/2), so the second chunk
// starts below the grain of 3 or 4 that a start/grain lane would need.
func TestRunFleetInspectorLanes(t *testing.T) {
	if FleetWorkers(2) < 2 {
		t.Skip("needs two fleet workers")
	}
	for _, tc := range []struct {
		devices int
		lanes   []int64
	}{{5, []int64{2, 3}}, {7, []int64{3, 4}}} {
		fc := fleetCfg(tc.devices, 2)
		fc.DurationS = 600
		fc.Inspect = fleetobs.NewInspector("devices", fc.Devices, FleetWorkers(2))
		if _, err := RunFleet(fc); err != nil {
			t.Fatal(err)
		}
		fc.Inspect.Finish()
		for i, w := range fc.Inspect.Status().Workers {
			if w.Done != tc.lanes[i] {
				t.Errorf("%d devices: lane %d did %d, want %d", tc.devices, i, w.Done, tc.lanes[i])
			}
		}
	}
}

// TestRunFleetShardedLedgerBooks checks that the fleet's fold books a
// device exactly as a single-device run books its ledger: a one-device
// fleet and the same device run alone leave the same bits in every account,
// in the income, and in the interaction histogram.
func TestRunFleetShardedLedgerBooks(t *testing.T) {
	fc := fleetCfg(1, 1)
	fleetReg := obs.NewRegistry()
	fleetLed := energy.NewLedger(fleetReg)
	fc.Base.Energy = fleetLed
	if _, err := RunFleet(fc); err != nil {
		t.Fatal(err)
	}

	cfg := fc.Base
	liveReg := obs.NewRegistry()
	liveLed := energy.NewLedger(liveReg)
	cfg.Energy = liveLed
	dev, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Run(fc.DurationS, PoissonArrivals(fleetRng(fc.Seed), fc.DurationS, fc.MeanGapS)); err != nil {
		t.Fatal(err)
	}

	checkLedgersIdentical(t, "fleet fold vs single run", fleetLed, liveLed, fleetReg, liveReg)
	if fleetLed.TotalHarvested() <= 0 || fleetLed.Consumed(energy.AccountInfer) <= 0 {
		t.Fatalf("degenerate device books:\n%s", fleetLed.Summary())
	}
}

// checkLedgersIdentical fails unless two ledgers hold the same bits in
// every account and in the income, and their registries' interaction
// histograms agree in counts, min and max.
func checkLedgersIdentical(t *testing.T, what string, a, b *energy.Ledger, ra, rb *obs.Registry) {
	t.Helper()
	sa, sb := a.Snapshot(), b.Snapshot()
	if sa.HarvestedJ != sb.HarvestedJ {
		t.Errorf("%s: harvested %.17g J vs %.17g J", what, sa.HarvestedJ, sb.HarvestedJ)
	}
	for _, acct := range energy.Accounts() {
		if sa.Account(acct) != sb.Account(acct) {
			t.Errorf("%s: account %s %.17g J vs %.17g J", what, acct, sa.Account(acct), sb.Account(acct))
		}
	}
	ha := ra.Snapshot().Histograms[energy.HistInteractionUJ]
	hb := rb.Snapshot().Histograms[energy.HistInteractionUJ]
	if ha.Count == 0 || ha.Count != hb.Count || ha.Min != hb.Min || ha.Max != hb.Max {
		t.Errorf("%s: interaction histogram count/min/max %d/%g/%g vs %d/%g/%g",
			what, ha.Count, ha.Min, ha.Max, hb.Count, hb.Min, hb.Max)
	}
	if !slices.Equal(ha.Counts, hb.Counts) {
		t.Errorf("%s: interaction buckets %v vs %v", what, ha.Counts, hb.Counts)
	}
}

// TestRunFleetLedgerWorkerIndependent pins the fleet ledger's determinism:
// devices fold in device order, so the ledger's totals are the same bits
// for every worker count and on a repeated run.
func TestRunFleetLedgerWorkerIndependent(t *testing.T) {
	run := func(workers int) (*energy.Ledger, *obs.Registry) {
		fc := fleetCfg(12, workers)
		reg := obs.NewRegistry()
		led := energy.NewLedger(reg)
		fc.Base.Energy = led
		if _, err := RunFleet(fc); err != nil {
			t.Fatal(err)
		}
		return led, reg
	}
	ref, refReg := run(1)
	for _, workers := range []int{2, 3, 2} {
		led, reg := run(workers)
		checkLedgersIdentical(t, fmt.Sprintf("workers=1 vs workers=%d", workers), ref, led, refReg, reg)
	}
}

// TestFleetDistsCapture sanity-checks the per-device distributions and
// their Summary/CSV/registry surfaces.
func TestFleetDistsCapture(t *testing.T) {
	fs, err := RunFleet(fleetCfg(8, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got := fs.Dists.Interactions.Count(); got != 8 {
		t.Fatalf("interactions dist saw %d devices, want 8", got)
	}
	if fs.Dists.FinalV.Quantile(0.5) <= 0 {
		t.Fatal("final-V p50 must be positive")
	}
	if s := fs.Summary(); !strings.Contains(s, "per-device p50/p95/p99") {
		t.Fatalf("Summary missing distribution line:\n%s", s)
	}

	reg := obs.NewRegistry()
	fs.Dists.PublishTo(reg)
	snap := reg.Snapshot()
	for _, name := range []string{HistFleetInteractions, HistFleetBrownOuts, HistFleetHarvestedJ, HistFleetFinalV} {
		if snap.Histograms[name].Count != 8 {
			t.Fatalf("registry histogram %s count = %d, want 8", name, snap.Histograms[name].Count)
		}
	}

	var csv strings.Builder
	if err := fs.Dists.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"dist,stat,le,value", "interactions,p95,,", "final_v,bucket,"} {
		if !strings.Contains(csv.String(), want) {
			t.Fatalf("fleet CSV missing %q:\n%s", want, csv.String())
		}
	}
}
