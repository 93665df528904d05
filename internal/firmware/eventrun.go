package firmware

import (
	"fmt"
	"math"
	"sort"

	"solarml/internal/harvest"
	"solarml/internal/sim"
)

// Event kinds on the lifetime simulation's queue.
const (
	// evArrival is a user interaction (hover / keyword).
	evArrival sim.Kind = iota
	// evBreakpoint is a lighting-profile knot: the input power law changes,
	// so any scheduled threshold crossing must be recomputed.
	evBreakpoint
	// evVTheta is a predicted supercap recovery up through V_θ. Data carries
	// the scheduling generation; a pop whose generation is stale is skipped.
	evVTheta
	// evEnd closes the run at `duration`.
	evEnd
)

// advanceDepth caps the adaptive bisection of one inter-knot piece. The
// built-in profiles are piecewise linear and never split; a smooth LuxFunc
// splits until the midpoint test passes. Both halves of a curved piece may
// split, so the worst case is 2^advanceDepth ramp advances — 12 keeps that
// bounded at 4096 while sub-piece curvature error stays negligible.
const advanceDepth = 12

// pieceLux reconstructs the (assumed linear) illuminance over (a, b) from
// three interior samples. Sampling strictly inside the interval makes the
// reconstruction robust to profile discontinuities that sit exactly on the
// piece edges — the knots the event queue splits at — where Lux(a) would
// report the neighbouring piece's value.
func (s *Simulator) pieceLux(a, b float64) (la, lb, lm float64) {
	w := b - a
	q1 := s.cfg.Lux.Lux(a + 0.25*w)
	lm = s.cfg.Lux.Lux(a + 0.5*w)
	q3 := s.cfg.Lux.Lux(a + 0.75*w)
	return 1.5*q1 - 0.5*q3, 1.5*q3 - 0.5*q1, lm
}

// advancePiece advances the harvester analytically from its clock to b
// across one knot-free piece of the profile, returning the stored-energy
// delta. Constant pieces take the closed-form constant solution, linear
// pieces the ramp solution; anything whose midpoint sample disagrees with
// the linear reconstruction is bisected.
func (s *Simulator) advancePiece(b float64, depth int) float64 {
	a := s.harv.Now
	if b <= a {
		return 0
	}
	la, lb, lm := s.pieceLux(a, b)
	tol := 1e-6 * (math.Abs(la) + math.Abs(lb) + 1)
	switch {
	case math.Abs(la-lb) <= tol && math.Abs(lm-(la+lb)/2) <= tol:
		return s.harv.AdvanceTo(b, lm)
	case math.Abs(lm-(la+lb)/2) <= tol || depth <= 0:
		return s.harv.AdvanceToRamp(b, la, lb)
	default:
		dE := s.advancePiece(a+(b-a)/2, depth-1)
		return dE + s.advancePiece(b, depth-1)
	}
}

// advanceCharge advances the harvester from its clock to t1 under the
// lighting profile, splitting at profile knots so every analytic piece is
// smooth, and returns the harvested energy (the sum of positive per-piece
// stored-energy gains, mirroring the fixed-step per-chunk accounting).
func (s *Simulator) advanceCharge(t1 float64) float64 {
	if t1 <= s.harv.Now {
		return 0
	}
	harvested := 0.0
	for _, b := range s.cfg.Lux.Breakpoints(s.harv.Now, t1) {
		if dE := s.advancePiece(b, advanceDepth); dE > 0 {
			harvested += dE
		}
	}
	if dE := s.advancePiece(t1, advanceDepth); dE > 0 {
		harvested += dE
	}
	return harvested
}

// scratch returns a throwaway harvester sharing the live one's array and
// electrical parameters but owning a copy of the supercap state, for
// crossing-time probes that must not disturb the run.
func (s *Simulator) scratch() *harvest.Harvester {
	capCopy := *s.harv.Cap
	return &harvest.Harvester{
		Array:      s.harv.Array,
		Cap:        &capCopy,
		Now:        s.harv.Now,
		Efficiency: s.harv.Efficiency,
		QuiescentW: s.harv.QuiescentW,
	}
}

// vthetaCrossing finds when the supercap, charging from the current state,
// first reaches V_θ within the knot-free piece [harv.Now, b]. Constant
// pieces use the closed form; ramp pieces bisect on probe advances over a
// scratch copy. Reports false when the crossing is not inside the piece.
func (s *Simulator) vthetaCrossing(b float64) (float64, bool) {
	a := s.harv.Now
	if b <= a {
		return 0, false
	}
	la, lb, _ := s.pieceLux(a, b)
	tol := 1e-6 * (math.Abs(la) + math.Abs(lb) + 1)
	if math.Abs(la-lb) <= tol {
		tc := s.harv.TimeToVoltage(s.cfg.VTheta, (la+lb)/2)
		if math.IsInf(tc, 1) || a+tc > b {
			return 0, false
		}
		return a + tc, true
	}
	probe := func(t float64) float64 {
		h := s.scratch()
		h.AdvanceToRamp(t, la, la+(lb-la)*(t-a)/(b-a))
		return h.Cap.V
	}
	if probe(b) < s.cfg.VTheta {
		return 0, false
	}
	lo, hi := a, b
	for i := 0; i < 64 && hi-lo > 1e-9; i++ {
		mid := lo + (hi-lo)/2
		if probe(mid) >= s.cfg.VTheta {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true
}

// scheduleVTheta predicts the next supercap recovery up through V_θ and
// pushes it as an event tagged with the current scheduling generation.
// Only the piece up to the next profile knot is searched: the knot's own
// event re-runs the scheduler under the new lighting law, so crossings
// beyond it are never stale guesses.
func (s *Simulator) scheduleVTheta(q *sim.Queue, gen int64, limit float64) {
	if s.harv.Cap.V > s.cfg.VTheta || s.harv.Now >= limit {
		return
	}
	b := limit
	if bps := s.cfg.Lux.Breakpoints(s.harv.Now, limit); len(bps) > 0 {
		b = bps[0]
	}
	if tc, ok := s.vthetaCrossing(b); ok {
		q.Push(tc, evVTheta, gen)
	}
}

// Run simulates `duration` seconds with user interactions at the given
// times (need not be sorted), on the event queue: arrivals, lighting-knot
// breakpoints, and predicted V_θ recoveries are the only points where
// state changes hands, and between them the charge+leak ODE is advanced in
// closed form. Outcomes match the historical 60 s fixed-step integrator
// (kept as the test oracle, pinned by equivalence tests) at a fraction of
// the work — a device-day is a few hundred events instead of tens of
// thousands of chunk steps.
func (s *Simulator) Run(duration float64, eventTimes []float64) (*Stats, error) {
	times := append([]float64(nil), eventTimes...)
	sort.Float64s(times)
	for _, et := range times {
		if et < 0 || et > duration {
			return nil, fmt.Errorf("firmware: event time %.1f outside [0, %.1f]", et, duration)
		}
	}
	stats := s.newStats(duration)
	if !s.leanStats {
		stats.Events = make([]Event, 0, len(times))
	}
	baseCost := s.sessionCostFor(s.cfg.InferMACs)

	// Arrivals are exogenous and already sorted, so they ride beside the
	// queue as a pre-sorted stream (the classic calendar-of-known-events
	// split) instead of churning the heap; the queue carries the
	// endogenous schedule — lighting knots, predicted V_θ crossings, and
	// the end of the run. At equal timestamps the arrival goes first,
	// matching the FIFO order a single queue would give events pushed
	// arrivals-first — the order the sequential integrator implied.
	q := sim.NewQueue()
	for _, bp := range s.cfg.Lux.Breakpoints(0, duration) {
		q.Push(bp, evBreakpoint, 0)
	}
	q.Push(duration, evEnd, 0)

	// session advances the shaded array for the interaction's duration in
	// one analytic step at midpoint illuminance — the same sampling the
	// fixed-step path uses for its (single, sub-minute) session chunk.
	session := func(durS float64) float64 {
		t0 := s.harv.Now
		dE := s.harv.AdvanceToShaded(t0+durS, s.cfg.Lux.Lux(t0+durS/2), 0.4, 0.8, true)
		if dE > 0 {
			return dE
		}
		return 0
	}

	var clk sim.Clock
	var gen int64
	s.scheduleVTheta(q, gen, duration)
	ai := 0
	for {
		var ev sim.Event
		qev, qok := q.Peek()
		if ai < len(times) && (!qok || times[ai] <= qev.T) {
			ev = sim.Event{T: times[ai], Kind: evArrival}
			ai++
		} else if qok {
			q.Pop()
			ev = qev
		} else {
			break
		}
		clk.AdvanceTo(ev.T)
		switch ev.Kind {
		case evArrival:
			if ev.T >= s.harv.Now {
				stats.HarvestedJ += s.advanceCharge(ev.T)
			} else {
				// The previous session overran this arrival. The chunked
				// integrator rewound its cursor to the arrival time and
				// re-charged the overlap; replicate that exactly.
				s.harv.Now = ev.T
			}
			s.interact(ev.T, baseCost, stats, session)
			gen++
			s.scheduleVTheta(q, gen, duration)
		case evBreakpoint:
			stats.HarvestedJ += s.advanceCharge(ev.T)
			gen++
			s.scheduleVTheta(q, gen, duration)
		case evVTheta:
			if ev.Data != gen {
				continue // superseded by a later arrival or knot
			}
			stats.HarvestedJ += s.advanceCharge(ev.T)
			stats.VThetaUpCrossings++
		case evEnd:
			stats.HarvestedJ += s.advanceCharge(ev.T)
		}
	}
	stats.FinalV = s.harv.Cap.V
	s.foldEnergy()
	return stats, nil
}
