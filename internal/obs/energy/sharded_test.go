package energy

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"solarml/internal/obs"
)

// TestShardedLedgerEquivalence charges the same work into a sharded and a
// plain ledger and checks totals, registry counters, and the interaction
// histogram agree.
func TestShardedLedgerEquivalence(t *testing.T) {
	const workers, perWorker = 4, 1000

	shardedReg := obs.NewRegistry()
	sl := NewShardedLedger(shardedReg, workers)
	plainReg := obs.NewRegistry()
	pl := NewLedger(plainReg)
	var plainMu sync.Mutex

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stripe := sl.Stripe(w)
			for i := 0; i < perWorker; i++ {
				stripe.Charge(AccountSense, 1e-6)
				stripe.Charge(AccountInfer, 3e-6)
				stripe.Harvest(5e-6)
				interaction := float64((w*perWorker+i)%1500) * 1.3e-6
				stripe.ObserveInteraction(interaction)
				plainMu.Lock()
				pl.Charge(AccountSense, 1e-6)
				pl.Charge(AccountInfer, 3e-6)
				pl.Harvest(5e-6)
				pl.ObserveInteraction(interaction)
				plainMu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	pl.Sync()

	ss, ps := sl.Snapshot(), pl.Snapshot()
	for _, a := range Accounts() {
		if math.Abs(ss.Account(a)-ps.Account(a)) > 1e-12 {
			t.Fatalf("account %s: sharded %g plain %g", a, ss.Account(a), ps.Account(a))
		}
	}
	if math.Abs(ss.HarvestedJ-ps.HarvestedJ) > 1e-12 {
		t.Fatalf("harvested: %g vs %g", ss.HarvestedJ, ps.HarvestedJ)
	}

	shardedSnap := shardedReg.Snapshot() // runs the OnSnapshot hooks
	plainSnap := plainReg.Snapshot()
	for _, name := range []string{
		AccountCounter(AccountSense), AccountCounter(AccountInfer),
		CounterHarvestedUJ, CounterConsumedUJ,
	} {
		if got, want := shardedSnap.Counters[name], plainSnap.Counters[name]; got != want {
			t.Fatalf("counter %s: sharded %d plain %d", name, got, want)
		}
	}
	sh, ph := shardedSnap.Histograms[HistInteractionUJ], plainSnap.Histograms[HistInteractionUJ]
	if sh.Count != ph.Count {
		t.Fatalf("interaction histogram count: %d vs %d", sh.Count, ph.Count)
	}
	for i := range sh.Counts {
		if sh.Counts[i] != ph.Counts[i] {
			t.Fatalf("interaction bucket %d: %d vs %d", i, sh.Counts[i], ph.Counts[i])
		}
	}
	// Min and max are exact; the float sum accumulates in a different order
	// across stripes, so it gets rounding slack.
	if sh.Min != ph.Min || sh.Max != ph.Max {
		t.Fatalf("interaction min/max: sharded (%g,%g) plain (%g,%g)", sh.Min, sh.Max, ph.Min, ph.Max)
	}
	if math.Abs(sh.Sum-ph.Sum) > 1e-9*math.Abs(ph.Sum) {
		t.Fatalf("interaction sum: sharded %g plain %g", sh.Sum, ph.Sum)
	}
}

// TestShardedLedgerRepeatedSnapshotsIdentical takes two registry snapshots
// back to back over a striped ledger: the second sync has nothing new to
// publish, so counters and the interaction histogram must read the same.
func TestShardedLedgerRepeatedSnapshotsIdentical(t *testing.T) {
	reg := obs.NewRegistry()
	sl := NewShardedLedger(reg, 3)
	for i := 0; i < 300; i++ {
		stripe := sl.Stripe(i)
		stripe.Charge(AccountDetect, 1.7e-7)
		stripe.Charge(AccountInfer, 2.3e-6)
		stripe.Harvest(3.1e-6)
		stripe.ObserveInteraction(float64(i) * 1e-6)
	}
	first, second := reg.Snapshot(), reg.Snapshot()
	if len(first.Counters) == 0 || first.Counters[CounterConsumedUJ] == 0 {
		t.Fatalf("first snapshot published nothing: %v", first.Counters)
	}
	for name, v := range first.Counters {
		if second.Counters[name] != v {
			t.Fatalf("counter %s: %d then %d", name, v, second.Counters[name])
		}
	}
	a, b := first.Histograms[HistInteractionUJ], second.Histograms[HistInteractionUJ]
	if a.Count != 300 || b.Count != a.Count || b.Sum != a.Sum || b.Min != a.Min || b.Max != a.Max {
		t.Fatalf("interaction histogram changed between snapshots: %+v then %+v", a, b)
	}
	for i := range a.Counts {
		if a.Counts[i] != b.Counts[i] {
			t.Fatalf("interaction bucket %d: %d then %d", i, a.Counts[i], b.Counts[i])
		}
	}
}

// TestShardedLedgerNilAndHelpers covers the nil contract and the reporting
// helpers.
func TestShardedLedgerNilAndHelpers(t *testing.T) {
	var sl *ShardedLedger
	if sl.Stripe(3) != nil {
		t.Fatal("nil sharded ledger must yield nil stripe")
	}
	sl.Stripe(0).Charge(AccountSense, 1) // nil stripe is a valid no-op
	sl.Sync()
	if sl.Workers() != 0 || sl.Snapshot().ConsumedJ != 0 {
		t.Fatal("nil sharded ledger not empty")
	}

	sl = NewShardedLedger(nil, 2)
	sl.Stripe(0).Charge(AccountInfer, 2e-6)
	sl.Stripe(1).Harvest(1e-6)
	sl.Sync() // registry-less: must be a no-op, not a panic
	tot := sl.AccountTotals()
	if math.Abs(tot["infer"]-2e-6) > 1e-18 || math.Abs(tot["harvested"]-1e-6) > 1e-18 {
		t.Fatalf("AccountTotals = %v", tot)
	}
	if !strings.Contains(sl.Summary(), "infer") {
		t.Fatalf("Summary missing account:\n%s", sl.Summary())
	}
	var b strings.Builder
	if err := sl.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "consumed,infer,") {
		t.Fatalf("CSV missing account row:\n%s", b.String())
	}
}

// TestShardedLedgerHotPathAllocs pins the striped charge path at zero
// allocations.
func TestShardedLedgerHotPathAllocs(t *testing.T) {
	sl := NewShardedLedger(nil, 2)
	stripe := sl.Stripe(0)
	if n := testing.AllocsPerRun(1000, func() {
		stripe.Charge(AccountSense, 1e-6)
		stripe.Harvest(2e-6)
		stripe.ObserveInteraction(3e-6)
	}); n != 0 {
		t.Fatalf("hot path allocates %v per op, want 0", n)
	}
}

// BenchmarkLedgerContention compares a single shared ledger against striped
// lanes across worker counts — the number that justifies the sharding.
func BenchmarkLedgerContention(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("sharded/stripes=%d", workers), func(b *testing.B) {
			sl := NewShardedLedger(nil, workers)
			var next atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				stripe := sl.Stripe(int(next.Add(1) - 1))
				for pb.Next() {
					stripe.Charge(AccountInfer, 1e-6)
					stripe.ObserveInteraction(4e-6)
				}
			})
		})
	}
	b.Run("shared", func(b *testing.B) {
		l := NewLedger(obs.NewRegistry())
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				l.Charge(AccountInfer, 1e-6)
				l.ObserveInteraction(4e-6)
			}
		})
	})
}
