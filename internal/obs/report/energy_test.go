package report_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"solarml/internal/obs"
	"solarml/internal/obs/energy"
	"solarml/internal/obs/report"
)

// recordEnergy produces a small trace with span-attributed energy and a
// ledger-published metrics snapshot: two firmware-style sessions with
// detect/sense/infer children plus harvest income.
func recordEnergy(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec := obs.NewRecorder(&buf)
	reg := obs.NewRegistry()
	led := energy.NewLedger(reg)
	rec.WriteManifest(obs.Manifest{Tool: "lifetime", Seed: 1})

	charge := func(parent *obs.Span, acc energy.Account, name string, j float64) {
		child := parent.Child(name)
		led.ChargeSpan(&child, acc, j)
		child.End()
	}
	for i := 0; i < 2; i++ {
		sp := rec.StartSpan("firmware.session")
		charge(&sp, energy.AccountDetect, "firmware.detect", 100e-6)
		charge(&sp, energy.AccountSense, "firmware.sense", 2e-3)
		charge(&sp, energy.AccountInfer, "firmware.infer", 1e-3)
		sp.End()
	}
	led.Harvest(10e-3)
	led.Charge(energy.AccountLeak, 50e-6)
	var interaction energy.Books
	interaction.ObserveInteraction(3.1e-3)
	led.Fold(&interaction)
	led.Sync()
	rec.FlushMetrics(reg)
	rec.Finish("ok")
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestEnergyRollupAndAccounts(t *testing.T) {
	tr, err := report.Read(bytes.NewReader(recordEnergy(t)))
	if err != nil {
		t.Fatal(err)
	}

	rollup := tr.EnergyRollup()
	byName := map[string]report.EnergyNameStat{}
	for _, st := range rollup {
		byName[st.Name] = st
	}
	if st := byName["firmware.sense"]; st.Count != 2 || math.Abs(st.OwnUJ-4000) > 1e-9 {
		t.Errorf("sense rollup = %+v, want count 2 / 4000 µJ", st)
	}
	if st := byName["firmware.session"]; math.Abs(st.SubtreeUJ-6200) > 1e-9 || st.OwnUJ != 0 {
		t.Errorf("session rollup = %+v, want subtree 6200 µJ / own 0", st)
	}
	// Rollup sorts by own energy: sense (4000) before infer (2000).
	if rollup[0].Name != "firmware.sense" || rollup[1].Name != "firmware.infer" {
		t.Errorf("rollup order = %s, %s", rollup[0].Name, rollup[1].Name)
	}
	if got := tr.TotalEnergyUJ(); math.Abs(got-6200) > 1e-9 {
		t.Errorf("total span energy = %g µJ, want 6200", got)
	}

	accounts := tr.EnergyAccounts()
	want := map[string]int64{"sense": 4000, "infer": 2000, "detect": 200, "leak": 50}
	got := map[string]int64{}
	for _, a := range accounts {
		if a.UJ != 0 {
			got[a.Account] = a.UJ
		}
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("account %s = %d µJ, want %d", k, got[k], v)
		}
	}
	if accounts[0].Account != "sense" {
		t.Errorf("accounts not sorted by µJ: first = %s", accounts[0].Account)
	}
	harvested, consumed := tr.EnergyTotals()
	if harvested != 10000 || consumed != 6250 {
		t.Errorf("totals = %d harvested / %d consumed µJ, want 10000 / 6250", harvested, consumed)
	}
}

func TestEnergyCriticalPath(t *testing.T) {
	tr, err := report.Read(bytes.NewReader(recordEnergy(t)))
	if err != nil {
		t.Fatal(err)
	}
	path := tr.EnergyCriticalPath()
	if len(path) != 2 {
		t.Fatalf("path length = %d, want 2 (session → sense)", len(path))
	}
	if path[0].Name != "firmware.session" || path[1].Name != "firmware.sense" {
		t.Errorf("path = %s → %s, want firmware.session → firmware.sense", path[0].Name, path[1].Name)
	}
}

func TestEnergyFolded(t *testing.T) {
	tr, err := report.Read(bytes.NewReader(recordEnergy(t)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteEnergyFolded(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"firmware.session;firmware.sense 4000",
		"firmware.session;firmware.infer 2000",
		"firmware.session;firmware.detect 200",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("folded output missing %q:\n%s", want, out)
		}
	}
	// Parents with no own energy must not produce a line of their own.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "firmware.session ") {
			t.Errorf("zero-energy parent emitted: %q", line)
		}
	}
}

func TestEnergyReportText(t *testing.T) {
	tr, err := report.Read(bytes.NewReader(recordEnergy(t)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteEnergyReport(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"energy accounts", "span energy rollup", "energy critical path",
		"harvested", "consumed", "sense",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("energy report missing %q:\n%s", want, out)
		}
	}
}

func TestEnergyReportWithoutTelemetry(t *testing.T) {
	var buf bytes.Buffer
	rec := obs.NewRecorder(&buf)
	sp := rec.StartSpan("plain")
	sp.End()
	rec.Finish("ok")
	tr, err := report.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := tr.WriteEnergyReport(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no energy telemetry") {
		t.Errorf("energy report on plain trace = %q", out.String())
	}
}
