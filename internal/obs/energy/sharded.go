package energy

import (
	"io"

	"solarml/internal/obs"
)

// ShardedLedger is the fleet-scale joule ledger: one accumulate-only Ledger
// stripe per worker, summed on read. The single Ledger is already lock-free,
// but at fleet scale every worker's Charge would land a CAS on the same
// account cache line and every interaction on the same histogram mutex.
// Each stripe instead owns its accounts and a private unregistered
// interaction histogram, whose mutex only its own worker takes; a registry
// hook publishes the summed totals through the publisher Ledger.Sync uses,
// as exact µJ counter deltas plus the drained stripe histograms, so
// Prometheus scrapes and metrics flushes see the numbers a single shared
// ledger would have shown.
//
// A nil *ShardedLedger is a valid disabled ledger: Stripe returns a nil
// *Ledger (itself a valid no-op) and every method returns zero values.
type ShardedLedger struct {
	stripes []*Ledger
	pub     *publisher
}

// NewShardedLedger returns a ledger striped across the given worker count
// (values < 1 become 1). With a non-nil registry it publishes the same
// counter and histogram names as NewLedger — energy.*_uj and
// energy.interaction_uj — keeping fleet metrics drop-in compatible with
// single-device runs. The supercap and harvest-rate gauges are not
// published: they are per-device levels with no fleet-wide meaning.
func NewShardedLedger(reg *obs.Registry, stripes int) *ShardedLedger {
	if stripes < 1 {
		stripes = 1
	}
	sl := &ShardedLedger{
		stripes: make([]*Ledger, stripes),
		pub:     newPublisher(reg, reg.Histogram(HistInteractionUJ, InteractionBucketsUJ)),
	}
	for w := range sl.stripes {
		l := NewLedger(nil)
		l.hInteraction = obs.NewHistogram(InteractionBucketsUJ)
		sl.stripes[w] = l
	}
	reg.OnSnapshot(sl.Sync)
	return sl
}

// Stripe returns worker w's private ledger lane (any w is valid, wrapped
// onto the stripe count). Hand it to the worker's devices as their Config
// ledger: every Charge/Harvest/ObserveInteraction lands on worker-private
// cache lines. Nil-safe: a nil ShardedLedger yields a nil (disabled) Ledger.
func (sl *ShardedLedger) Stripe(w int) *Ledger {
	if sl == nil {
		return nil
	}
	return sl.stripes[uint(w)%uint(len(sl.stripes))]
}

// Workers returns the stripe count (0 for a nil ledger).
func (sl *ShardedLedger) Workers() int {
	if sl == nil {
		return 0
	}
	return len(sl.stripes)
}

// Snapshot sums the stripes into one fleet-wide ledger snapshot. The
// supercap and harvest-rate fields stay zero (per-device levels).
func (sl *ShardedLedger) Snapshot() Snapshot {
	s := Snapshot{AccountJ: make([]float64, numAccounts)}
	if sl == nil {
		return s
	}
	for _, l := range sl.stripes {
		for i := range l.consumed {
			j := l.consumed[i].Value()
			s.AccountJ[i] += j
			s.ConsumedJ += j
		}
		s.HarvestedJ += l.harvested.Value()
	}
	return s
}

// AccountTotals flattens the snapshot to name → joules, with harvested and
// consumed totals — the shape the fleet inspector serves on /debug/fleet.
func (sl *ShardedLedger) AccountTotals() map[string]float64 {
	s := sl.Snapshot()
	out := make(map[string]float64, numAccounts+2)
	for _, a := range Accounts() {
		out[a.String()] = s.Account(a)
	}
	out["harvested"] = s.HarvestedJ
	out["consumed"] = s.ConsumedJ
	return out
}

// Summary renders the summed snapshot; see Snapshot.Summary.
func (sl *ShardedLedger) Summary() string { return sl.Snapshot().Summary() }

// WriteCSV writes the summed snapshot; see Snapshot.WriteCSV.
func (sl *ShardedLedger) WriteCSV(w io.Writer) error { return sl.Snapshot().WriteCSV(w) }

// Sync publishes the summed stripe totals into the registry counters as
// exact µJ deltas, and drains the stripes' interaction histograms into the
// registry's, through the publisher Ledger.Sync uses. Registered as an
// OnSnapshot hook, so every registry consumer reads current totals;
// explicit calls are idempotent.
func (sl *ShardedLedger) Sync() {
	if sl == nil || sl.pub == nil {
		return
	}
	sl.pub.sync(sl.stripes...)
}
