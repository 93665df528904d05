// Package harvest models the SPV1050-class energy-harvesting path of the
// SolarML platform: maximum-power-point tracking from the solar array into
// the supercap, including converter efficiency and supercap leakage. Its
// headline output is the harvesting time needed to fund one end-to-end
// inference at a given illuminance (§V-D: ≈31 s for digits and ≈57 s for
// KWS at 500 lux).
package harvest

import (
	"fmt"
	"math"

	"solarml/internal/circuit"
	"solarml/internal/obs"
	"solarml/internal/solar"
)

// Harvester couples a solar array to a supercap through an MPPT converter.
type Harvester struct {
	Array *solar.Array
	Cap   *circuit.Supercap
	// Now is the harvester's simulation clock in seconds, advanced by the
	// analytic AdvanceTo family. The fixed-step Charge path does not touch
	// it; callers mixing the two (or modelling overlapping activity) may
	// set it directly.
	Now float64
	// Efficiency is the MPPT + converter efficiency (SPV1050 ≈ 0.8 indoor,
	// folded into the cell calibration; kept explicit for sweeps).
	Efficiency float64
	// QuiescentW is the harvester chip's own draw.
	QuiescentW float64
	// Obs, when set, records one harvest.time event per TimeToHarvest
	// query. The per-step Charge path stays uninstrumented.
	Obs *obs.Recorder
	// IncomeJ and LeakJ are the running energy books of every charge
	// step: the storable income deposited (post-clamp, pre-leak) and the
	// supercap's self-discharge, in joules. LevelV and RateW are the
	// supercap voltage and the net input power at the last booked step
	// (Level adds the stored joules). They are plain fields, owned like
	// the rest of the harvester by one goroutine; a caller keeping a
	// shared energy.Ledger folds them into it when the run is done.
	// Booking never changes the arithmetic of the charge itself.
	IncomeJ, LeakJ float64
	LevelV, RateW  float64

	// memo caches the last InputPower evaluation. Indoor lighting is
	// piecewise constant for long stretches, so consecutive charge steps
	// overwhelmingly re-query the same illuminance; the cache returns the
	// identical float, so numerics are unchanged.
	memo struct {
		lux, p  float64
		sensing bool
		ok      bool
	}
	// shadedMemo is the same cache for the hand-shadowed session power: a
	// deployment's shading geometry is fixed, so back-to-back sessions at
	// the plateau illuminance skip the per-cell array walk.
	shadedMemo struct {
		lux, cover, shade, p float64
		sensing              bool
		ok                   bool
	}
}

// New returns a harvester over the standard 25-cell array and 1 F supercap.
func New() *Harvester {
	return &Harvester{
		Array:      solar.NewArray(),
		Cap:        circuit.NewSupercap(),
		Efficiency: 1.0, // cell calibration already includes converter loss
		QuiescentW: 0.3e-6,
	}
}

// InputPower returns the net charging power in watts at the given
// illuminance, after converter efficiency and quiescent draw.
func (h *Harvester) InputPower(lux float64, sensingActive bool) float64 {
	if h.memo.ok && lux == h.memo.lux && sensingActive == h.memo.sensing {
		return h.memo.p
	}
	p := h.Array.HarvestPower(lux, sensingActive)*h.Efficiency - h.QuiescentW
	if p < 0 {
		p = 0
	}
	h.memo.lux, h.memo.sensing, h.memo.p, h.memo.ok = lux, sensingActive, p, true
	return p
}

// Charge advances the harvester by dt seconds at constant illuminance,
// depositing energy into the supercap and applying leakage.
func (h *Harvester) Charge(lux, dt float64, sensingActive bool) {
	if dt < 0 {
		panic(fmt.Sprintf("harvest: negative interval %v", dt))
	}
	h.deposit(h.InputPower(lux, sensingActive), dt)
}

// deposit applies one constant-power charge step: energy in, then leakage —
// the exact operation order the golden seeded-search fixtures depend on.
// It books the post-clamp deposit as income (energy clipped at VMax never
// existed as storable income) and the leak drop as leakage.
func (h *Harvester) deposit(p, dt float64) {
	before := h.Cap.Energy()
	h.Cap.AddEnergy(p * dt)
	stored := h.Cap.Energy()
	h.Cap.Leak(dt)
	h.Book(stored-before, stored-h.Cap.Energy(), p)
}

// Book records one charge step in the harvester's books: income and leak
// joules (non-positive amounts are dropped, as rounding can leave them
// slightly below zero), the net input power, and the supercap level after
// the step. Every charge path books through it, the analytic advances with
// income = ΔE + leak so that income − leak = Δstored exactly; a caller
// that steps the supercap itself books the step here.
func (h *Harvester) Book(income, leak, rateW float64) {
	if income > 0 {
		h.IncomeJ += income
	}
	if leak > 0 {
		h.LeakJ += leak
	}
	h.RateW = rateW
	h.LevelV = h.Cap.V
}

// Level returns the supercap voltage and stored joules at the last booked
// step.
func (h *Harvester) Level() (volts, joules float64) {
	c := *h.Cap
	c.V = h.LevelV
	return c.V, c.Energy()
}

// shadedPower is InputPower's hand-shadow variant, memoized the same way.
func (h *Harvester) shadedPower(lux, handCover, handShade float64, sensingActive bool) float64 {
	m := &h.shadedMemo
	if m.ok && m.lux == lux && m.cover == handCover && m.shade == handShade && m.sensing == sensingActive {
		return m.p
	}
	p := h.Array.HarvestPowerShaded(lux, handCover, handShade, sensingActive)*h.Efficiency - h.QuiescentW
	if p < 0 {
		p = 0
	}
	m.lux, m.cover, m.shade, m.sensing, m.p, m.ok = lux, handCover, handShade, sensingActive, p, true
	return p
}

// TimeToHarvest returns how long the platform must charge at the given
// illuminance to accumulate `energyJ` of usable energy, accounting for
// leakage. Returns +Inf if the input cannot outrun the leak.
func (h *Harvester) TimeToHarvest(energyJ, lux float64) float64 {
	if energyJ <= 0 {
		return 0
	}
	p := h.InputPower(lux, false)
	leak := h.Cap.LeakW * 0.5 // average leak over the charging band
	net := p - leak
	if net <= 0 {
		h.Obs.Event("harvest.time", obs.F64("energy_j", energyJ),
			obs.F64("lux", lux), obs.Bool("stalled", true))
		return math.Inf(1)
	}
	t := energyJ / net
	h.Obs.Event("harvest.time", obs.F64("energy_j", energyJ),
		obs.F64("lux", lux), obs.F64("net_w", net), obs.F64("seconds", t))
	return t
}
