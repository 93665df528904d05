//go:build !race

package energy

import (
	"testing"

	"solarml/internal/obs"
)

// TestNoopLedgerZeroAlloc pins the disabled-path contract: a nil ledger (and
// a nil span behind it) makes every producer call free, mirroring
// obs.TestNoopZeroAlloc. (Excluded under -race, whose instrumentation
// changes allocation behaviour.)
func TestNoopLedgerZeroAlloc(t *testing.T) {
	var l *Ledger
	var sp obs.Span
	allocs := testing.AllocsPerRun(1000, func() {
		l.Charge(AccountInfer, 1e-3)
		l.ChargeSpan(&sp, AccountSense, 1e-3)
		l.Harvest(2e-3)
		l.SetSupercap(3.0, 4.5)
		l.SetHarvestRate(0.01)
		l.Fold(&Books{})
		l.Sync()
	})
	if allocs != 0 {
		t.Fatalf("disabled ledger allocated %.1f times per op, want 0", allocs)
	}
}

// TestEnabledChargeZeroAlloc pins the enabled hot paths: Charge/Harvest on
// a live ledger are one atomic add, booking into a device's Books is plain
// float arithmetic, and folding the books into the ledger allocates
// nothing either.
func TestEnabledChargeZeroAlloc(t *testing.T) {
	l := NewLedger(obs.NewRegistry())
	var b Books
	allocs := testing.AllocsPerRun(1000, func() {
		l.Charge(AccountInfer, 1e-6)
		l.Harvest(2e-6)
		b.Charge(AccountSense, 1e-6)
		b.Harvest(2e-6)
		b.ObserveInteraction(3e-6)
		l.Fold(&b)
	})
	if allocs != 0 {
		t.Fatalf("enabled ledger charge allocated %.1f times per op, want 0", allocs)
	}
}

// BenchmarkNoopLedgerCharge reports the cost of a fully disabled charge.
func BenchmarkNoopLedgerCharge(b *testing.B) {
	var l *Ledger
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Charge(AccountInfer, 1e-6)
	}
}

// BenchmarkLedgerCharge reports the enabled atomic-add hot path.
func BenchmarkLedgerCharge(b *testing.B) {
	l := NewLedger(obs.NewRegistry())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Charge(AccountInfer, 1e-6)
	}
}

// BenchmarkLedgerChargeSpan reports a charge attributed to a live span.
func BenchmarkLedgerChargeSpan(b *testing.B) {
	l := NewLedger(obs.NewRegistry())
	rec := obs.NewRecorder(discard{})
	sp := rec.StartSpan("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.ChargeSpan(&sp, AccountInfer, 1e-6)
	}
}

// BenchmarkLedgerSync reports the publication cost of one Sync.
func BenchmarkLedgerSync(b *testing.B) {
	l := NewLedger(obs.NewRegistry())
	l.Charge(AccountInfer, 1e-3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Charge(AccountSense, 1e-9)
		l.Sync()
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
