// Package energy is the joule ledger of the SolarML observability stack: a
// lock-cheap accumulator that attributes harvested and consumed energy to a
// fixed taxonomy of named accounts (sense, detect, infer, train, mcu-sleep,
// radio, leak) and — through obs.Span.AddEnergy — to live spans, so traces
// carry energy the same way they carry durations.
//
// The ledger mirrors the obs design contracts:
//
//   - A nil *Ledger is a valid disabled ledger: every method returns
//     immediately and allocates nothing, so the producers (harvest steps,
//     firmware sessions, training loops) carry no conditionals.
//   - Charge and Harvest are one obs.Gauge.Add per call (an atomic CAS
//     add), no locks, no allocations.
//   - A simulated device books into its own Books — plain floats — and
//     folds them into the ledger once, when it is done. A fleet folds its
//     devices in device order, so the totals are the same for every worker
//     count.
//   - Sync publishes the accumulated totals into an obs.Registry as
//     monotonic microjoule counters (delta-published so rounding never
//     accumulates) and supercap/harvest-rate gauges; Fold merges
//     interactions into the registry's joules-per-interaction histogram.
//     The Prometheus /metrics endpoint and metrics snapshots then expose
//     them without further glue.
package energy

import (
	"math"
	"sync"

	"solarml/internal/obs"
)

// Account names a destination for consumed energy. The taxonomy is fixed so
// ledgers from millions of simulated devices aggregate by index, not by
// string key.
type Account uint8

const (
	// AccountSense: sensor sampling and pre-processing (the paper's E_S).
	AccountSense Account = iota
	// AccountDetect: event detection — wake-up transitions, the passive
	// hover detector, idle vigilance (the paper's E_E).
	AccountDetect
	// AccountInfer: model execution (the paper's E_M).
	AccountInfer
	// AccountTrain: on-device training / personalization steps.
	AccountTrain
	// AccountSleep: MCU deep-sleep, standby, and off retention draw.
	AccountSleep
	// AccountRadio: telemetry uplink (reserved for the fleet engine).
	AccountRadio
	// AccountLeak: supercap self-discharge.
	AccountLeak
	numAccounts
)

var accountNames = [numAccounts]string{
	"sense", "detect", "infer", "train", "mcu-sleep", "radio", "leak",
}

// String returns the account name used in metric names, CSV artifacts, and
// span attributes.
func (a Account) String() string {
	if int(a) < len(accountNames) {
		return accountNames[a]
	}
	return "unknown"
}

// Accounts returns every account in fixed display order.
func Accounts() []Account {
	out := make([]Account, numAccounts)
	for i := range out {
		out[i] = Account(i)
	}
	return out
}

// Metric names the ledger publishes. Counters are microjoule-integer so
// they survive the int64 counter representation; gauges are SI.
const (
	// CounterHarvestedUJ is the cumulative energy deposited into the
	// supercap (post-clamp, pre-leak), in µJ.
	CounterHarvestedUJ = "energy.harvested_uj"
	// CounterConsumedUJ is the cumulative energy consumed across all
	// accounts, in µJ.
	CounterConsumedUJ = "energy.consumed_uj"
	// GaugeSupercapJ / GaugeSupercapV are the stored-energy level gauges.
	GaugeSupercapJ = "energy.supercap_j"
	GaugeSupercapV = "energy.supercap_v"
	// GaugeHarvestRateW is the instantaneous net harvesting input power.
	GaugeHarvestRateW = "energy.harvest_rate_w"
	// HistInteractionUJ is the joules-per-interaction histogram.
	HistInteractionUJ = "energy.interaction_uj"
)

// AccountCounter returns the µJ counter name for one account, e.g.
// "energy.mcu-sleep_uj" (Prometheus-sanitized to energy_mcu_sleep_uj).
func AccountCounter(a Account) string { return "energy." + a.String() + "_uj" }

// interactionBounds holds the joules-per-interaction bucket bounds in µJ,
// from a rejected wake-up (tens of µJ) to a deep multi-exit KWS session
// (tens of mJ). It is an array so Books can keep its bucket counts inline.
var interactionBounds = [...]float64{
	10, 50, 100, 500, 1e3, 5e3, 1e4, 5e4, 1e5, 1e6,
}

// InteractionBucketsUJ are the bucket bounds of the joules-per-interaction
// histogram, in µJ.
var InteractionBucketsUJ = interactionBounds[:]

// Books is one producer's private energy books: joules per account,
// harvested income, and the joules-per-interaction histogram, in plain
// fields. A Books belongs to one goroutine (a simulated device), so booking
// costs no atomic, no lock and no allocation; Ledger.Fold adds the books to
// a shared ledger once the producer is done. The zero value is empty.
type Books struct {
	accountJ   [numAccounts]float64
	harvestedJ float64
	// The interaction histogram in µJ, bucketed as obs.Dist buckets it:
	// counts[i] holds the values v ≤ interactionBounds[i] above every
	// lower bound, and the last entry the overflow.
	counts              [len(interactionBounds) + 1]uint64
	n                   uint64
	sumUJ, minUJ, maxUJ float64
}

// Charge attributes joules of consumption to the account. Non-positive
// charges are dropped (producers pass raw deltas that can round to zero or
// slightly below).
func (b *Books) Charge(a Account, joules float64) {
	if joules <= 0 || a >= numAccounts {
		return
	}
	b.accountJ[a] += joules
}

// Harvest credits joules of income (energy actually deposited into
// storage). Non-positive amounts are dropped.
func (b *Books) Harvest(joules float64) {
	if joules > 0 {
		b.harvestedJ += joules
	}
}

// ObserveInteraction records one end-to-end interaction's energy in the
// joules-per-interaction histogram (µJ buckets).
func (b *Books) ObserveInteraction(joules float64) {
	uj := joules * 1e6
	i := 0
	for i < len(interactionBounds) && !(interactionBounds[i] >= uj) {
		i++
	}
	b.counts[i]++
	if b.n == 0 || uj < b.minUJ {
		b.minUJ = uj
	}
	if b.n == 0 || uj > b.maxUJ {
		b.maxUJ = uj
	}
	b.n++
	b.sumUJ += uj
}

// Ledger attributes joules to accounts. Charge, Harvest and Fold are safe
// for concurrent use and lock-free apart from the interaction histogram's
// short mutex; Sync serializes publication under its own mutex.
type Ledger struct {
	consumed  [numAccounts]obs.Gauge
	harvested obs.Gauge
	supercapJ obs.Gauge
	supercapV obs.Gauge
	harvestW  obs.Gauge

	// Pre-resolved registry instruments (nil with a nil registry; every
	// nil instrument is a valid no-op). hInteraction receives the folded
	// books' interactions.
	gSupercapJ   *obs.Gauge
	gSupercapV   *obs.Gauge
	gHarvestW    *obs.Gauge
	hInteraction *obs.Histogram
	accountC     [numAccounts]*obs.Counter
	harvestedC   *obs.Counter
	consumedC    *obs.Counter

	// The µJ already published into the counters, so each Sync adds exact
	// deltas: a counter always equals round(total µJ) and per-sync
	// rounding never accumulates.
	mu          sync.Mutex
	accountUJ   [numAccounts]int64
	harvestedUJ int64
	consumedUJ  int64
}

// NewLedger returns a ledger publishing into reg on Sync. reg may be nil:
// the ledger still accumulates (Snapshot, Summary, and WriteCSV work) but
// publishes nothing and keeps no interaction histogram — the shape
// examples and tests use.
func NewLedger(reg *obs.Registry) *Ledger {
	l := &Ledger{
		gSupercapJ:   reg.Gauge(GaugeSupercapJ),
		gSupercapV:   reg.Gauge(GaugeSupercapV),
		gHarvestW:    reg.Gauge(GaugeHarvestRateW),
		hInteraction: reg.Histogram(HistInteractionUJ, InteractionBucketsUJ),
		harvestedC:   reg.Counter(CounterHarvestedUJ),
		consumedC:    reg.Counter(CounterConsumedUJ),
	}
	for a := Account(0); a < numAccounts; a++ {
		l.accountC[a] = reg.Counter(AccountCounter(a))
	}
	return l
}

// Enabled reports whether the ledger records anything.
func (l *Ledger) Enabled() bool { return l != nil }

// Charge attributes joules of consumption to the account. Non-positive
// charges are dropped (producers pass raw deltas that can round to zero or
// slightly below).
func (l *Ledger) Charge(a Account, joules float64) {
	if l == nil || joules <= 0 || a >= numAccounts {
		return
	}
	l.consumed[a].Add(joules)
}

// ChargeSpan charges the account and attributes the same joules to the
// span, which will report them as an energy_uj attribute at End. sp may be
// nil or disabled; the account charge still lands.
func (l *Ledger) ChargeSpan(sp *obs.Span, a Account, joules float64) {
	if l == nil || joules <= 0 || a >= numAccounts {
		return
	}
	l.consumed[a].Add(joules)
	if sp != nil {
		sp.AddEnergy(joules)
	}
}

// Harvest credits joules of income (energy actually deposited into
// storage). Non-positive amounts are dropped.
func (l *Ledger) Harvest(joules float64) {
	if l == nil || joules <= 0 {
		return
	}
	l.harvested.Add(joules)
}

// Fold adds a producer's books to the ledger: every account, the harvested
// income, and the interactions into the registry histogram. Folding
// producers in a fixed order fixes the ledger's float sums, so its totals
// do not depend on how the producers were scheduled. Folding books into an
// empty ledger reproduces them bit for bit.
func (l *Ledger) Fold(b *Books) {
	if l == nil || b == nil {
		return
	}
	for a, j := range b.accountJ {
		if j > 0 {
			l.consumed[a].Add(j)
		}
	}
	if b.harvestedJ > 0 {
		l.harvested.Add(b.harvestedJ)
	}
	if b.n > 0 {
		l.hInteraction.Merge(obs.HistogramSnapshot{
			Bounds: InteractionBucketsUJ, Counts: b.counts[:],
			Count: b.n, Sum: b.sumUJ, Min: b.minUJ, Max: b.maxUJ,
		})
	}
}

// SetSupercap records the storage level: terminal voltage and stored
// joules. Published immediately as gauges when a registry is attached.
func (l *Ledger) SetSupercap(volts, joules float64) {
	if l == nil {
		return
	}
	l.supercapV.Set(volts)
	l.supercapJ.Set(joules)
	l.gSupercapV.Set(volts)
	l.gSupercapJ.Set(joules)
}

// SetHarvestRate records the instantaneous net harvesting input power in
// watts, published immediately as a gauge when a registry is attached.
func (l *Ledger) SetHarvestRate(watts float64) {
	if l == nil {
		return
	}
	l.harvestW.Set(watts)
	l.gHarvestW.Set(watts)
}

// Consumed returns the joules charged to one account so far.
func (l *Ledger) Consumed(a Account) float64 {
	if l == nil || a >= numAccounts {
		return 0
	}
	return l.consumed[a].Value()
}

// TotalConsumed returns the joules charged across all accounts.
func (l *Ledger) TotalConsumed() float64 {
	if l == nil {
		return 0
	}
	var t float64
	for i := range l.consumed {
		t += l.consumed[i].Value()
	}
	return t
}

// TotalHarvested returns the harvested joules so far.
func (l *Ledger) TotalHarvested() float64 {
	if l == nil {
		return 0
	}
	return l.harvested.Value()
}

// Sync publishes the accumulated totals into the registry instruments:
// counter deltas in µJ (the counter tracks round(total µJ) exactly, and
// consumption is the sum of the accounts' µJ) and the level gauges. The
// totals are read under the mutex, so concurrent syncs never move a counter
// backwards. Call it from a sampler hook (obs/cli wires this) or before any
// explicit metrics flush; a nil ledger or one built over a nil registry is
// a no-op.
func (l *Ledger) Sync() {
	if l == nil || l.consumedC == nil {
		return
	}
	l.mu.Lock()
	var consumedUJ float64
	for i := range l.accountUJ {
		uj := l.consumed[i].Value() * 1e6
		consumedUJ += uj
		l.accountUJ[i] = publishUJ(l.accountC[i], l.accountUJ[i], uj)
	}
	l.consumedUJ = publishUJ(l.consumedC, l.consumedUJ, consumedUJ)
	l.harvestedUJ = publishUJ(l.harvestedC, l.harvestedUJ, l.harvested.Value()*1e6)
	l.mu.Unlock()
	l.gSupercapV.Set(l.supercapV.Value())
	l.gSupercapJ.Set(l.supercapJ.Value())
	l.gHarvestW.Set(l.harvestW.Value())
}

// publishUJ adds round(uj) minus the published total to c and returns the
// new published total.
func publishUJ(c *obs.Counter, published int64, uj float64) int64 {
	tot := int64(math.Round(uj))
	c.Add(tot - published)
	return tot
}

// Snapshot is a point-in-time copy of the ledger.
type Snapshot struct {
	// AccountJ is indexed by Account, one entry per Accounts().
	AccountJ []float64
	// HarvestedJ is the income side; ConsumedJ the sum of AccountJ.
	HarvestedJ float64
	ConsumedJ  float64
	// SupercapJ/SupercapV/HarvestRateW mirror the level gauges.
	SupercapJ, SupercapV, HarvestRateW float64
}

// Account returns one account's joules from the snapshot.
func (s Snapshot) Account(a Account) float64 {
	if int(a) < len(s.AccountJ) {
		return s.AccountJ[a]
	}
	return 0
}

// NetJ returns harvested minus consumed joules.
func (s Snapshot) NetJ() float64 { return s.HarvestedJ - s.ConsumedJ }

// Snapshot copies the ledger state; a nil ledger yields a zero snapshot
// with a non-nil (empty-total) account slice.
func (l *Ledger) Snapshot() Snapshot {
	s := Snapshot{AccountJ: make([]float64, numAccounts)}
	if l == nil {
		return s
	}
	for i := range l.consumed {
		s.AccountJ[i] = l.consumed[i].Value()
		s.ConsumedJ += s.AccountJ[i]
	}
	s.HarvestedJ = l.harvested.Value()
	s.SupercapJ = l.supercapJ.Value()
	s.SupercapV = l.supercapV.Value()
	s.HarvestRateW = l.harvestW.Value()
	return s
}

// AccountTotals flattens the ledger's snapshot to name → joules, with
// harvested and consumed totals — the shape the fleet inspector serves on
// /debug/fleet.
func (l *Ledger) AccountTotals() map[string]float64 {
	s := l.Snapshot()
	out := make(map[string]float64, numAccounts+2)
	for _, a := range Accounts() {
		out[a.String()] = s.Account(a)
	}
	out["harvested"] = s.HarvestedJ
	out["consumed"] = s.ConsumedJ
	return out
}
