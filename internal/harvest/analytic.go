package harvest

import (
	"fmt"
	"math"
)

// This file holds the analytic time-advance core of the harvester: the
// charge+leak ODE
//
//	dE/dt = p(t) − k·E,   k = 2·LeakW/(C·VMax²)
//
// solved in closed form over an interval instead of being replayed in
// fixed sub-second Charge steps. With the integrating factor e^{kt},
//
//	E(Δ) = e^{−kΔ}·E₀ + ∫₀^Δ e^{−k(Δ−s)}·p(s) ds,
//
// and for constant or linearly ramping input power the integral reduces to
// the two stable kernels
//
//	G1 = ∫₀^Δ e^{−k(Δ−s)} ds    = −expm1(−kΔ)/k
//	G2 = ∫₀^Δ s·e^{−k(Δ−s)} ds  = (Δ − G1)/k
//
// (with series fallbacks for k·Δ → 0, where the quotients cancel
// catastrophically). The VMax clamp is handled by solving for the exact
// crossing time, so a single Advance call over hours is as accurate as a
// million-step replay. Leakage over the interval falls out by energy
// balance — leak = ∫p dt − ΔE on the unclamped trajectory — which keeps
// the books' income−leak=Δstored invariant exact.

// kernels returns e^{−kΔ}, G1, and G2 for one interval. This sits on the
// per-event hot path of fleet runs, so it avoids transcendentals where it
// can: for w = kΔ < 1e−3 — every realistic supercap (k ≈ 7e−8/s) over
// intervals up to hours — the Maclaurin series truncated at w⁴ is within
// one ulp of the exact kernels, costs a handful of multiplies, and
// sidesteps the catastrophic cancellation in (Δ − G1)/k as w → 0. Beyond
// that, one Expm1 call serves all three: G1 = (1 − e^{−kΔ})/k directly,
// and the identity e^{−kΔ} = 1 − k·G1 recovers the decay factor without a
// second transcendental.
func kernels(k, dt float64) (decay, g1, g2 float64) {
	if k <= 0 {
		return 1, dt, dt * dt / 2
	}
	w := k * dt
	if w < 1e-3 {
		// G1 = Δ·(1 − w/2 + w²/6 − w³/24 + w⁴/120 − …)
		// G2 = Δ²·(1/2 − w/6 + w²/24 − w³/120 + w⁴/720 − …)
		// (G2's closed form is (w − 1 + e^{−w})/k²; expanding the
		// exponential gives the series above.) Truncation error is
		// O(w⁵) ≤ 1e−18 relative — below double precision.
		g1 = dt * (1 + w*(-1.0/2+w*(1.0/6+w*(-1.0/24+w*(1.0/120)))))
		g2 = dt * dt * (0.5 + w*(-1.0/6+w*(1.0/24+w*(-1.0/120+w*(1.0/720)))))
		return 1 - k*g1, g1, g2
	}
	g1 = -math.Expm1(-w) / k
	decay = 1 - k*g1
	g2 = (dt - g1) / k
	return decay, g1, g2
}

// constStep advances the supercap by dt seconds at constant input power p,
// returning the stored-energy delta and the leaked joules. Handles the
// VMax clamp by solving for the exact crossing time.
func (h *Harvester) constStep(dt, p float64) (dE, leak float64) {
	if dt <= 0 {
		return 0, 0
	}
	c := h.Cap
	e0 := c.Energy()
	eMax := 0.5 * c.Farads * c.VMax * c.VMax
	k := c.LeakRate()
	decay, g1, _ := kernels(k, dt)
	e1 := decay*e0 + p*g1
	if e1 > eMax {
		// Rising toward an asymptote above the clamp: find the crossing
		// time tc (Log1p keeps it stable as k → 0, where it degenerates
		// to (EMax−E₀)/p), then sit pinned at VMax with income offsetting
		// leak and the excess shed (never booked as storable income). A
		// store already at the clamp — the common steady state on bright
		// plateaus — crosses at tc = 0 without the transcendental.
		var tc float64
		switch {
		case e0 >= eMax:
			tc = 0
		case k > 0:
			tc = math.Log1p((eMax-e0)*k/(p-k*eMax)) / k
		default:
			tc = (eMax - e0) / p
		}
		if tc < 0 {
			tc = 0
		}
		if tc > dt {
			tc = dt
		}
		leak = (p*tc - (eMax - e0)) + k*eMax*(dt-tc)
		c.V = c.VMax
		return eMax - e0, leak
	}
	leak = p*dt - (e1 - e0)
	c.V = math.Sqrt(2 * e1 / c.Farads)
	if c.V > c.VMax {
		c.V = c.VMax
	}
	return e1 - e0, leak
}

// rampStep advances by dt seconds with input power linear from p0 to p1,
// dispatching to rampRegimes with a recursion budget (the regime splits
// below terminate in 2–3 levels; the budget is a float-edge-case backstop
// that degrades to a midpoint constant step, never an infinite descent).
func (h *Harvester) rampStep(dt, p0, p1 float64) (dE, leak float64) {
	return h.rampRegimes(dt, p0, p1, 8)
}

// rampRegimes advances one linear-power ramp exactly, clamp included. The
// closed form applies while the store stays below VMax; when the unclamped
// trajectory would cross the clamp, the interval is split into definite
// regimes, each exact:
//
//   - pinned (E = EMax, input ≥ the pin power k·EMax): the store holds
//     level, income replaces leak (k·EMax per second) and the surplus is
//     shed — O(1) for any duration;
//   - unpin (input falls through k·EMax while pinned): pinned until the
//     linear input crosses the pin power, then a plain falling ramp;
//   - clamp approach (store rises into EMax): the crossing time of the
//     closed-form trajectory is bisected once, unclamped before, pinned
//     after;
//   - sag recovery (input starts below the pin power and rises): split
//     where the input regains k·EMax — the store provably stays below
//     EMax before that point, so each side lands in a regime above.
func (h *Harvester) rampRegimes(dt, p0, p1 float64, depth int) (dE, leak float64) {
	if dt <= 0 {
		return 0, 0
	}
	if p0 == p1 || depth <= 0 {
		return h.constStep(dt, (p0+p1)/2)
	}
	c := h.Cap
	e0 := c.Energy()
	eMax := 0.5 * c.Farads * c.VMax * c.VMax
	k := c.LeakRate()
	beta := (p1 - p0) / dt
	decay, g1, g2 := kernels(k, dt)
	e1 := decay*e0 + p0*g1 + beta*g2
	// An interior maximum needs E″ = β < 0 at a critical point (rising
	// power makes every interior critical point a minimum), plus the store
	// rising at the start and falling at the end — only then can the
	// trajectory poke above the clamp mid-interval, so only then is the
	// midpoint probed.
	eMid := e0
	if beta < 0 && p0 > k*e0 && p1 < k*e1 {
		decayM, g1m, g2m := kernels(k, dt/2)
		eMid = decayM*e0 + p0*g1m + beta*g2m
	}
	if e1 <= eMax && eMid <= eMax {
		leak = (p0+p1)/2*dt - (e1 - e0)
		c.V = math.Sqrt(2 * e1 / c.Farads)
		if c.V > c.VMax {
			c.V = c.VMax
		}
		return e1 - e0, leak
	}
	pPin := k * eMax
	switch {
	case e0 >= eMax && p0 >= pPin:
		c.V = c.VMax
		if p1 >= pPin {
			return 0, pPin * dt // pinned throughout
		}
		tu := (pPin - p0) / beta // beta < 0: input falls through the pin
		if tu <= 0 || tu >= dt {
			return 0, pPin * dt
		}
		d2, l2 := h.rampRegimes(dt-tu, pPin, p1, depth-1)
		return d2, pPin*tu + l2
	case p0 < pPin && beta > 0:
		tu := (pPin - p0) / beta
		if tu > 0 && tu < dt {
			d1, l1 := h.rampRegimes(tu, p0, pPin, depth-1)
			d2, l2 := h.rampRegimes(dt-tu, pPin, p1, depth-1)
			return d1 + d2, l1 + l2
		}
		return h.constStep(dt, (p0+p1)/2)
	default:
		// Rising store crosses the clamp inside the interval: bisect the
		// unclamped closed form for the crossing time.
		lo, hi := 0.0, dt
		for i := 0; i < 64 && hi-lo > 1e-9*dt; i++ {
			mid := lo + (hi-lo)/2
			dm, g1m2, g2m2 := kernels(k, mid)
			if dm*e0+p0*g1m2+beta*g2m2 >= eMax {
				hi = mid
			} else {
				lo = mid
			}
		}
		tc := hi
		pc := p0 + beta*tc
		dE = eMax - e0
		leak = (p0+pc)/2*tc - dE
		c.V = c.VMax
		d2, l2 := h.rampRegimes(dt-tc, pc, p1, depth-1)
		return dE + d2, leak + l2
	}
}

// clockTo validates an absolute-time advance target against the harvester
// clock and returns the interval length.
func (h *Harvester) clockTo(t float64) float64 {
	if t < h.Now {
		panic(fmt.Sprintf("harvest: AdvanceTo moving backwards: %v -> %v", h.Now, t))
	}
	dt := t - h.Now
	h.Now = t
	return dt
}

// AdvanceTo advances the harvester's clock to absolute time t under
// constant illuminance, applying the closed-form charge+leak solution in
// one step regardless of interval length. Returns the stored-energy delta
// (negative when leakage outruns the input). This replaces fixed-step
// Charge replays on the event-driven path; Charge remains for callers that
// want the legacy stepping.
func (h *Harvester) AdvanceTo(t, lux float64) float64 {
	dt := h.clockTo(t)
	p := h.InputPower(lux, false)
	dE, leak := h.constStep(dt, p)
	h.Book(dE+leak, leak, p)
	return dE
}

// AdvanceToShaded advances the clock to t while a hand hovers over the
// array (a session in progress), with handCover of the cells shaded to
// handShade depth on top of the sensing cells being switched out.
func (h *Harvester) AdvanceToShaded(t, lux, handCover, handShade float64, sensingActive bool) float64 {
	dt := h.clockTo(t)
	p := h.shadedPower(lux, handCover, handShade, sensingActive)
	dE, leak := h.constStep(dt, p)
	h.Book(dE+leak, leak, p)
	return dE
}

// rawNet returns the pre-clamp net charging power at the given
// illuminance: array output through the converter minus the quiescent
// draw, negative when the draw wins. Above zero illuminance this is
// exactly linear in lux (parallel MPP cells), which is what lets ramp
// advances locate the power-clamp bend analytically.
func (h *Harvester) rawNet(lux float64) float64 {
	return h.Array.HarvestPower(lux, false)*h.Efficiency - h.QuiescentW
}

// AdvanceToRamp advances the clock to t with illuminance ramping linearly
// from lux0 (at the current clock) to lux1 (at t) — the dawn/dusk segments
// of piecewise-linear lighting profiles, solved in closed form. When the
// net input power crosses zero inside the ramp (deep darkness, where the
// quiescent draw wins), the crossing sits at a computable point of the
// piecewise-linear power law, so the clamp is handled exactly rather than
// by probing.
func (h *Harvester) AdvanceToRamp(t, lux0, lux1 float64) float64 {
	if t < h.Now {
		panic(fmt.Sprintf("harvest: AdvanceToRamp moving backwards: %v -> %v", h.Now, t))
	}
	return h.advanceRamp(t, lux0, lux1)
}

func (h *Harvester) advanceRamp(t, lux0, lux1 float64) float64 {
	dt := t - h.Now
	if dt <= 0 {
		h.Now = t
		return 0
	}
	// Physical profiles never go dark below zero; clamp reconstruction
	// noise so the power law stays linear over the whole ramp.
	if lux0 < 0 {
		lux0 = 0
	}
	if lux1 < 0 {
		lux1 = 0
	}
	r0 := h.rawNet(lux0)
	r1 := h.rawNet(lux1)
	h.Now = t
	var dE, leak float64
	switch {
	case r0 >= 0 && r1 >= 0:
		dE, leak = h.rampStep(dt, r0, r1)
	case r0 <= 0 && r1 <= 0:
		// Quiescent draw wins across the whole ramp: net input clamps
		// to zero and only leakage acts.
		dE, leak = h.constStep(dt, 0)
	default:
		// The clamp bends the ramp where the raw net power crosses zero;
		// power is linear in time, so the bend is at s exactly.
		s := r0 / (r0 - r1) * dt
		if r0 < 0 { // darkness first, then a rising ramp
			d1, l1 := h.constStep(s, 0)
			d2, l2 := h.rampStep(dt-s, 0, r1)
			dE, leak = d1+d2, l1+l2
		} else { // falling ramp into darkness
			d1, l1 := h.rampStep(s, r0, 0)
			d2, l2 := h.constStep(dt-s, 0)
			dE, leak = d1+d2, l1+l2
		}
	}
	h.Book(dE+leak, leak, math.Max(r1, 0))
	return dE
}

// TimeToVoltage returns how long charging at constant illuminance takes to
// raise the supercap from its current state to targetV, from the closed
// form of the charge+leak ODE (no simulation steps, no state mutation).
// Returns 0 when already at or above the target and +Inf when the target
// is unreachable: above the VMax clamp, or beyond the steady-state level
// p/k where leakage balances the input. The tests pin it against a
// fixed-step charging replay.
func (h *Harvester) TimeToVoltage(targetV, lux float64) float64 {
	c := h.Cap
	e0 := c.Energy()
	eT := 0.5 * c.Farads * targetV * targetV
	if e0 >= eT {
		return 0
	}
	if targetV > c.VMax {
		return math.Inf(1)
	}
	p := h.InputPower(lux, false)
	k := c.LeakRate()
	if k == 0 {
		if p <= 0 {
			return math.Inf(1)
		}
		return (eT - e0) / p
	}
	eInf := p / k
	if eInf <= eT {
		return math.Inf(1)
	}
	return math.Log1p((eT-e0)/(eInf-eT)) / k
}
