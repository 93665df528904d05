package energy

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"solarml/internal/obs"
)

func TestAccountNames(t *testing.T) {
	want := []string{"sense", "detect", "infer", "train", "mcu-sleep", "radio", "leak"}
	got := Accounts()
	if len(got) != len(want) {
		t.Fatalf("Accounts() = %d entries, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.String() != want[i] {
			t.Errorf("account %d = %q, want %q", i, a, want[i])
		}
	}
	if Account(200).String() != "unknown" {
		t.Errorf("out-of-range account name = %q, want unknown", Account(200))
	}
	if got := AccountCounter(AccountSleep); got != "energy.mcu-sleep_uj" {
		t.Errorf("AccountCounter(mcu-sleep) = %q", got)
	}
}

func TestLedgerAccounting(t *testing.T) {
	l := NewLedger(nil)
	l.Charge(AccountSense, 1e-3)
	l.Charge(AccountSense, 2e-3)
	l.Charge(AccountInfer, 5e-3)
	l.Charge(AccountInfer, -1) // dropped
	l.Charge(Account(250), 1)  // dropped: out of range
	l.Harvest(10e-3)
	l.Harvest(0) // dropped

	if got := l.Consumed(AccountSense); math.Abs(got-3e-3) > 1e-15 {
		t.Errorf("sense = %g, want 3e-3", got)
	}
	if got := l.TotalConsumed(); math.Abs(got-8e-3) > 1e-15 {
		t.Errorf("total consumed = %g, want 8e-3", got)
	}
	if got := l.TotalHarvested(); got != 10e-3 {
		t.Errorf("harvested = %g, want 10e-3", got)
	}
	s := l.Snapshot()
	if math.Abs(s.NetJ()-2e-3) > 1e-15 {
		t.Errorf("net = %g, want 2e-3", s.NetJ())
	}
	if got := s.Account(AccountInfer); got != 5e-3 {
		t.Errorf("snapshot infer = %g, want 5e-3", got)
	}
	tot := l.AccountTotals()
	if tot["infer"] != 5e-3 || tot["harvested"] != 10e-3 || tot["consumed"] != s.ConsumedJ || len(tot) != len(Accounts())+2 {
		t.Errorf("AccountTotals = %v", tot)
	}
}

// TestBooksFoldMatchesLiveLedger pins the fold: books folded into an empty
// ledger hold the bits a ledger charged call by call holds, and their
// interactions land in the registry histogram exactly as direct
// observations would, bucket edges and overflow included.
func TestBooksFoldMatchesLiveLedger(t *testing.T) {
	var b Books
	live := NewLedger(nil)
	direct := obs.NewHistogram(InteractionBucketsUJ)
	for i, j := range []float64{0, 10e-6, 10.5e-6, 3.3e-3, 1e-3, 2, 0.1e-6, 47e-6} {
		acc := Account(i % int(numAccounts))
		b.Charge(acc, j)
		live.Charge(acc, j)
		b.Harvest(3 * j)
		live.Harvest(3 * j)
		b.ObserveInteraction(j)
		direct.Observe(j * 1e6)
	}
	b.Charge(AccountSense, -1)
	b.Harvest(0)

	reg := obs.NewRegistry()
	folded := NewLedger(reg)
	folded.Fold(&b)
	if got, want := folded.Snapshot(), live.Snapshot(); !slices.Equal(got.AccountJ, want.AccountJ) || got.HarvestedJ != want.HarvestedJ {
		t.Errorf("folded %+v, charged live %+v", got, want)
	}
	got, want := reg.Snapshot().Histograms[HistInteractionUJ], direct.Snapshot()
	if !slices.Equal(got.Counts, want.Counts) || got.Count != want.Count ||
		got.Sum != want.Sum || got.Min != want.Min || got.Max != want.Max {
		t.Errorf("folded histogram %+v, observed directly %+v", got, want)
	}
}

func TestNilLedgerIsNoop(t *testing.T) {
	var l *Ledger
	l.Charge(AccountInfer, 1)
	l.ChargeSpan(nil, AccountSense, 1)
	l.Harvest(1)
	l.SetSupercap(3.0, 4.5)
	l.SetHarvestRate(0.01)
	l.Fold(&Books{})
	l.Sync()
	if l.Enabled() {
		t.Error("nil ledger reports Enabled")
	}
	if l.TotalConsumed() != 0 || l.TotalHarvested() != 0 {
		t.Error("nil ledger accumulated energy")
	}
	s := l.Snapshot()
	if s.ConsumedJ != 0 || len(s.AccountJ) == 0 {
		t.Errorf("nil snapshot = %+v", s)
	}
}

// TestSyncPublishesExactMicrojoules pins the delta-publishing contract: after
// any number of Syncs the counter equals round(total µJ) — per-sync rounding
// must not accumulate.
func TestSyncPublishesExactMicrojoules(t *testing.T) {
	reg := obs.NewRegistry()
	l := NewLedger(reg)

	// 0.4 µJ per charge: naive per-sync rounding would publish 0 forever.
	for i := 0; i < 5; i++ {
		l.Charge(AccountSense, 0.4e-6)
		l.Sync()
	}
	snap := reg.Snapshot()
	if got := snap.Counters["energy.sense_uj"]; got != 2 {
		t.Errorf("sense counter = %d µJ, want 2 (round(5*0.4))", got)
	}
	if got := snap.Counters[CounterConsumedUJ]; got != 2 {
		t.Errorf("consumed counter = %d µJ, want 2", got)
	}

	l.Harvest(1.2345e-3)
	l.Charge(AccountInfer, 7.7e-6)
	l.Sync()
	l.Sync() // idempotent when nothing changed
	snap = reg.Snapshot()
	if got := snap.Counters[CounterHarvestedUJ]; got != 1235 {
		t.Errorf("harvested counter = %d µJ, want 1235", got)
	}
	if got := snap.Counters["energy.infer_uj"]; got != 8 {
		t.Errorf("infer counter = %d µJ, want 8", got)
	}
	if got := snap.Counters[CounterConsumedUJ]; got != 10 {
		t.Errorf("consumed counter = %d µJ, want 10 (round(2+7.7))", got)
	}
}

func TestGaugesAndHistogram(t *testing.T) {
	reg := obs.NewRegistry()
	l := NewLedger(reg)
	l.SetSupercap(2.5, 3.125)
	l.SetHarvestRate(0.002)
	var b Books
	b.ObserveInteraction(450e-6) // 450 µJ
	b.ObserveInteraction(30e-6)  // 30 µJ
	l.Fold(&b)
	l.Sync()

	snap := reg.Snapshot()
	if got := snap.Gauges[GaugeSupercapV]; got != 2.5 {
		t.Errorf("supercap_v = %g", got)
	}
	if got := snap.Gauges[GaugeSupercapJ]; got != 3.125 {
		t.Errorf("supercap_j = %g", got)
	}
	if got := snap.Gauges[GaugeHarvestRateW]; got != 0.002 {
		t.Errorf("harvest_rate_w = %g", got)
	}
	h, ok := snap.Histograms[HistInteractionUJ]
	if !ok {
		t.Fatal("interaction histogram missing")
	}
	if h.Count != 2 {
		t.Errorf("histogram count = %d, want 2", h.Count)
	}
	if math.Abs(h.Sum-480) > 1e-9 {
		t.Errorf("histogram sum = %g µJ, want 480", h.Sum)
	}
}

func TestChargeSpanAttributesEnergy(t *testing.T) {
	var buf bytes.Buffer
	rec := obs.NewRecorder(&buf)
	l := NewLedger(nil)

	sp := rec.StartSpan("session")
	l.ChargeSpan(&sp, AccountInfer, 2e-3)
	l.ChargeSpan(&sp, AccountInfer, 1e-3)
	sp.End()
	rec.Finish("ok")
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}

	events, skipped, err := obs.ScanTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("trace had %d unparseable lines", skipped)
	}
	found := false
	for _, ev := range events {
		if ev.Name == "session" {
			found = true
			if got := ev.Float(obs.AttrEnergyUJ); math.Abs(got-3000) > 1e-9 {
				t.Errorf("span energy_uj = %g, want 3000", got)
			}
		}
	}
	if !found {
		t.Fatal("session span not found in trace")
	}
	if got := l.Consumed(AccountInfer); math.Abs(got-3e-3) > 1e-15 {
		t.Errorf("ledger infer = %g, want 3e-3", got)
	}
}

func TestLedgerConcurrent(t *testing.T) {
	reg := obs.NewRegistry()
	l := NewLedger(reg)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Charge(AccountInfer, 1e-6)
				l.Harvest(2e-6)
				if i%100 == 0 {
					l.Sync()
				}
			}
		}()
	}
	wg.Wait()
	l.Sync()
	if got := l.Consumed(AccountInfer); math.Abs(got-workers*per*1e-6) > 1e-9 {
		t.Errorf("infer = %g, want %g", got, workers*per*1e-6)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["energy.infer_uj"]; got != workers*per {
		t.Errorf("infer counter = %d, want %d", got, workers*per)
	}
	if got := snap.Counters[CounterHarvestedUJ]; got != 2*workers*per {
		t.Errorf("harvested counter = %d, want %d", got, 2*workers*per)
	}
}

func TestWriteCSV(t *testing.T) {
	l := NewLedger(nil)
	l.Charge(AccountSense, 1e-3)
	l.Charge(AccountInfer, 3e-3)
	l.Harvest(5e-3)

	var buf bytes.Buffer
	if err := l.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// header + 7 accounts + 3 totals
	if len(lines) != 11 {
		t.Fatalf("CSV has %d lines, want 11:\n%s", len(lines), out)
	}
	if lines[0] != "row,account,joules,share" {
		t.Errorf("header = %q", lines[0])
	}
	for _, want := range []string{
		"consumed,sense,0.001,0.2500",
		"consumed,infer,0.003,0.7500",
		"consumed,radio,0,0.0000",
		"total,harvested,0.005,",
		"total,consumed,0.004,",
		"total,net,0.001,",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV missing line %q:\n%s", want, out)
		}
	}
}

func TestSummary(t *testing.T) {
	l := NewLedger(nil)
	l.Charge(AccountInfer, 3e-3)
	l.Charge(AccountSense, 1e-3)
	l.Harvest(5e-3)
	s := l.Summary()
	for _, want := range []string{"infer", "sense", "consumed", "harvested", "net"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
	// Largest consumer listed first.
	if strings.Index(s, "infer") > strings.Index(s, "sense") {
		t.Errorf("summary not sorted by consumption:\n%s", s)
	}
	empty := NewLedger(nil).Summary()
	if !strings.Contains(empty, "no consumption") {
		t.Errorf("empty summary = %q", empty)
	}
}
