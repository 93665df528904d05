// Package firmware glues the SolarML subsystems into a discrete-event
// lifetime simulation: the supercap charges continuously from the array,
// user hover events arrive over hours, and each event runs the §III-B
// energy-management policy — the passive circuit boots the MCU only in
// sufficient light and with a charged supercap, the firmware proceeds with
// inference only when the stored voltage clears the threshold V_θ, and a
// session that outruns the stored energy browns out. This is the layer a
// deployment would actually run, and it exposes duty-cycle statistics that
// none of the single-session experiments can show.
package firmware

import (
	"fmt"
	"math"
	"math/rand"

	"solarml/internal/circuit"
	"solarml/internal/dataset"
	"solarml/internal/dsp"
	"solarml/internal/energymodel"
	"solarml/internal/harvest"
	"solarml/internal/mcu"
	"solarml/internal/nas"
	"solarml/internal/nn"
	"solarml/internal/obs"
	"solarml/internal/obs/energy"
	"solarml/internal/quant"
	"solarml/internal/solar"
)

// LuxProfile maps simulation time (seconds) to illuminance. Profiles also
// expose their knots, which lets the event-driven simulation core advance
// the charge ODE analytically over whole inter-knot pieces instead of
// replaying fixed steps.
type LuxProfile interface {
	// Lux returns the illuminance at time t (seconds).
	Lux(t float64) float64
	// Breakpoints returns the profile's knots strictly inside (t0, t1), in
	// ascending order. Between consecutive knots the profile must be smooth
	// — linear for an exact analytic advance, anything else is handled by
	// adaptive bisection.
	Breakpoints(t0, t1 float64) []float64
}

// LuxFunc adapts a plain function to LuxProfile. It declares no breakpoints;
// smooth nonlinearity is still advanced correctly (the event core's midpoint
// consistency check bisects adaptively), but a discontinuous LuxFunc should
// be converted to a knotted profile instead.
type LuxFunc func(t float64) float64

// Lux implements LuxProfile.
func (f LuxFunc) Lux(t float64) float64 { return f(t) }

// Breakpoints implements LuxProfile.
func (f LuxFunc) Breakpoints(t0, t1 float64) []float64 { return nil }

// constantLux is a flat profile: no knots, one analytic piece.
type constantLux float64

// Lux implements LuxProfile.
func (c constantLux) Lux(float64) float64 { return float64(c) }

// Breakpoints implements LuxProfile.
func (c constantLux) Breakpoints(t0, t1 float64) []float64 { return nil }

// ConstantLux returns a flat illuminance profile.
func ConstantLux(lux float64) LuxProfile { return constantLux(lux) }

// officeDay is the 12-hour office curve; piecewise linear between its knots.
type officeDay struct{ plateau float64 }

// officeKnots are the hour marks where the office curve bends or jumps:
// dawn ramp start/end, the lunch dip edges, dusk ramp start, lights out.
var officeKnots = [...]float64{0, 1, 5, 6, 11, 12}

// Lux implements LuxProfile.
func (o officeDay) Lux(t float64) float64 {
	h := t / 3600
	switch {
	case h < 0 || h > 12:
		return 5
	case h < 1: // ramp up
		return 5 + (o.plateau-5)*h
	case h >= 5 && h < 6: // lunch dip
		return o.plateau * 0.6
	case h > 11: // ramp down
		return o.plateau * (12 - h)
	default:
		return o.plateau
	}
}

// Breakpoints implements LuxProfile.
func (o officeDay) Breakpoints(t0, t1 float64) []float64 {
	var out []float64
	for _, h := range officeKnots {
		if t := h * 3600; t > t0 && t < t1 {
			out = append(out, t)
		}
	}
	return out
}

// OfficeDay models a 12-hour office lighting curve starting at t=0
// (07:00): lights ramp up to the working-hours plateau, dip over lunch,
// and fall to night levels after hour 11.
func OfficeDay(plateau float64) LuxProfile { return officeDay{plateau: plateau} }

// Config parameterizes a lifetime simulation.
type Config struct {
	// Lux is the lighting profile.
	Lux LuxProfile
	// Task selects the application (gesture by default). Either way, the
	// passive solar-cell hover detector wakes the platform; for KWS the
	// sensing phase is the microphone capture plus the MFCC front-end.
	Task nas.Task
	// Gesture is the deployed sensing configuration for TaskGesture.
	Gesture dataset.GestureConfig
	// Audio is the deployed front-end configuration for TaskKWS.
	Audio dsp.FrontEndConfig
	// InferMACs is the deployed model.
	InferMACs nn.KindMACs
	// VTheta is the firmware's minimum supercap voltage to start an
	// inference after boot (§III-B: "checks if the supercap voltage is
	// sufficient (V > V_θ)").
	VTheta float64
	// InitialV is the supercap voltage at t=0.
	InitialV float64
	// ExitMACs, when non-empty, replaces InferMACs with a HarvNet-style
	// multi-exit ladder (shallow→deep): at each event the firmware runs
	// the deepest exit whose session energy fits the energy stored above
	// V_θ, degrading gracefully instead of rejecting outright.
	ExitMACs []nn.KindMACs
	// Obs, when set, wraps every booted interaction in a firmware.session
	// span with firmware.detect/sense/infer children, each carrying its
	// phase's energy as an energy_uj attribute.
	Obs *obs.Recorder
	// Energy, when set, receives the run's energy books when Run returns:
	// session phases under detect/sense/infer, harvest income and supercap
	// leak from the harvester, one joules-per-interaction observation per
	// event, and the supercap and harvest-rate gauges at the harvester's
	// last booked step. The simulation arithmetic is identical with or
	// without it.
	Energy *energy.Ledger
}

// DefaultConfig returns a deployment-like configuration.
func DefaultConfig() Config {
	return Config{
		Lux: ConstantLux(500),
		Gesture: dataset.GestureConfig{
			Channels: 6, RateHz: 80,
			Quant: quant.Config{Res: quant.Int, Bits: 8},
		},
		InferMACs: nn.KindMACs{}.With(nn.KindConv, 350_000).With(nn.KindDense, 40_000),
		VTheta:    2.0,
		InitialV:  2.2,
	}
}

// EventOutcome classifies what happened to one user interaction.
type EventOutcome int

const (
	// Completed: the full sample→process→infer session ran.
	Completed EventOutcome = iota
	// BlockedWeakLight: the N₂ guard kept the MCU disconnected.
	BlockedWeakLight
	// BlockedLowSupercap: the supercap could not boot the MCU at all.
	BlockedLowSupercap
	// RejectedVTheta: the MCU booted, saw V ≤ V_θ, and powered back down.
	RejectedVTheta
	// BrownOut: the session started but the stored energy ran out.
	BrownOut
	numOutcomes
)

// String names the outcome.
func (o EventOutcome) String() string {
	switch o {
	case Completed:
		return "completed"
	case BlockedWeakLight:
		return "blocked-weak-light"
	case BlockedLowSupercap:
		return "blocked-low-supercap"
	case RejectedVTheta:
		return "rejected-vtheta"
	case BrownOut:
		return "brown-out"
	}
	return "unknown"
}

// Event records one interaction.
type Event struct {
	T       float64
	Outcome EventOutcome
	// EnergyJ is the energy the event consumed (partial on brown-out).
	EnergyJ float64
	// V is the supercap voltage when the event arrived.
	V float64
	// Exit is the multi-exit ladder rung used (-1 for single-exit runs).
	Exit int
}

// Stats summarizes a simulation run.
type Stats struct {
	Duration float64
	// Events is the per-interaction log. Fleet runs suppress it (the
	// aggregate counters are the story at that scale); Interactions is
	// the arrival count either way.
	Events       []Event
	Interactions int
	Counts       [numOutcomes]int
	ExitCounts   []int // completed sessions per ladder rung; nil without a ladder
	HarvestedJ   float64
	ConsumedJ    float64
	FinalV       float64
	// VThetaUpCrossings counts supercap recoveries up through V_θ between
	// interactions. Only the event-driven Run tracks these (they are its
	// threshold-crossing events); the fixed-step test oracle leaves the
	// count at zero.
	VThetaUpCrossings int
}

// newStats returns the empty tally of a run: one exit counter per ladder
// rung when the configuration has a ladder.
func (s *Simulator) newStats(duration float64) *Stats {
	stats := &Stats{Duration: duration}
	if n := len(s.cfg.ExitMACs); n > 0 {
		stats.ExitCounts = make([]int, n)
	}
	return stats
}

// Rate returns the completed fraction of all interactions.
func (s *Stats) Rate(outcome EventOutcome) float64 {
	if len(s.Events) == 0 {
		return 0
	}
	return float64(s.Counts[outcome]) / float64(len(s.Events))
}

// Summary renders a one-paragraph report.
func (s *Stats) Summary() string {
	out := fmt.Sprintf("%d interactions over %.1f h: ", len(s.Events), s.Duration/3600)
	for _, o := range []EventOutcome{Completed, RejectedVTheta, BrownOut, BlockedLowSupercap, BlockedWeakLight} {
		if n := s.Counts[o]; n > 0 {
			out += fmt.Sprintf("%d %s, ", n, o)
		}
	}
	out += fmt.Sprintf("harvested %.1f mJ, consumed %.1f mJ, final %.2f V",
		s.HarvestedJ*1e3, s.ConsumedJ*1e3, s.FinalV)
	return out
}

// Simulator runs lifetime simulations.
type Simulator struct {
	cfg     Config
	array   *solar.Array
	harv    *harvest.Harvester
	event   *circuit.EventCircuit
	profile mcu.PowerProfile
	// detect caches the three pure-in-lux detection voltages interact
	// needs per arrival. Indoor profiles hold one plateau illuminance for
	// hours, so consecutive arrivals almost always hit the cache — and the
	// logarithmic Voc behind DetectVoltage is the single hottest call in a
	// fleet run without it.
	detect struct {
		lux, hovered, refVoc, clear float64
		ok                          bool
	}
	// leanStats suppresses the per-interaction Events log (fleet runs
	// aggregate counters and drop the log unread).
	leanStats bool
	// books holds the session phases and interactions booked so far; the
	// harvester keeps the income and leak.
	books energy.Books
}

// New returns a simulator over a fresh platform.
func New(cfg Config) (*Simulator, error) {
	if cfg.Lux == nil {
		return nil, fmt.Errorf("firmware: missing lux profile")
	}
	if cfg.Task == nas.TaskKWS {
		if err := cfg.Audio.Validate(); err != nil {
			return nil, err
		}
	} else if err := cfg.Gesture.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:     cfg,
		array:   solar.NewArray(),
		harv:    harvest.New(),
		event:   circuit.NewEventCircuit(),
		profile: mcu.NRF52840(),
	}
	s.harv.Cap.V = cfg.InitialV
	s.harv.LevelV = s.harv.Cap.V
	return s, nil
}

// energyBooks returns the run's energy books so far: the session phases
// and interactions, plus the harvester's income and leak.
func (s *Simulator) energyBooks() energy.Books {
	b := s.books
	b.Harvest(s.harv.IncomeJ)
	b.Charge(energy.AccountLeak, s.harv.LeakJ)
	return b
}

// foldEnergy adds the run's books to Config.Energy, sets its level gauges
// from the harvester's last booked step, and empties the books, so a
// further run books only its own energy.
func (s *Simulator) foldEnergy() {
	l := s.cfg.Energy
	if l == nil {
		return
	}
	b := s.energyBooks()
	l.Fold(&b)
	l.SetSupercap(s.harv.Level())
	l.SetHarvestRate(s.harv.RateW)
	s.books = energy.Books{}
	s.harv.IncomeJ, s.harv.LeakJ = 0, 0
}

// sessionCost itemizes one full session's energy by phase, mapping onto
// the joule ledger accounts: wake → detect, sampling+processing → sense,
// model execution → infer.
type sessionCost struct {
	WakeJ  float64
	SenseJ float64
	InferJ float64
	DurS   float64
}

// TotalJ sums the phases in fixed wake+sense+infer order (the bit pattern
// the pre-ledger simulator produced).
func (c sessionCost) TotalJ() float64 { return c.WakeJ + c.SenseJ + c.InferJ }

// sessionCostFor returns the per-phase cost of one full session
// (wake + sample + process + infer) through the given model.
func (s *Simulator) sessionCostFor(macs nn.KindMACs) sessionCost {
	wake := s.profile.WakeUpS * s.profile.WakeUpW
	var sense, senseDur float64
	if s.cfg.Task == nas.TaskKWS {
		sense = energymodel.AudioSensingTrue(s.profile, s.cfg.Audio)
		senseDur = dataset.AudioDurationS
	} else {
		sense = energymodel.GestureSensingTrue(s.profile, s.cfg.Gesture)
		senseDur = dataset.GestureDurationS
	}
	infer := energymodel.DefaultCoefficients().TrueEnergy(macs)
	return sessionCost{
		WakeJ: wake, SenseJ: sense, InferJ: infer,
		DurS: s.profile.WakeUpS + senseDur + infer/s.profile.ActiveW,
	}
}

// sessionEnergyFor returns the energy and duration of one full session
// through the given model (the aggregate view of sessionCostFor).
func (s *Simulator) sessionEnergyFor(macs nn.KindMACs) (float64, float64) {
	c := s.sessionCostFor(macs)
	return c.TotalJ(), c.DurS
}

// chooseExit picks the deepest affordable ladder rung given the energy
// stored above the V_θ reserve. Returns -1 when even the shallowest exit
// does not fit.
func (s *Simulator) chooseExit() (int, sessionCost) {
	available := s.harv.Cap.EnergyAbove(s.cfg.VTheta)
	exit := -1
	var best sessionCost
	for k, macs := range s.cfg.ExitMACs {
		c := s.sessionCostFor(macs)
		if c.TotalJ() <= available {
			exit, best = k, c
		}
	}
	return exit, best
}

// chargePhase books one session phase: a child span named for the phase
// (energy attributed via energy_uj) under parent, and the matching account
// in the run's books. The span may be disabled.
func (s *Simulator) chargePhase(parent *obs.Span, acc energy.Account, name string, j float64) {
	if j <= 0 {
		return
	}
	if parent.Enabled() {
		child := parent.Child(name, obs.Str("account", acc.String()))
		child.AddEnergy(j)
		child.End()
	}
	s.books.Charge(acc, j)
}

// interact runs the §III-B decision tree for one arrival at et and books
// the outcome into stats. The session closure charges the (hand-shadowed)
// array for durS seconds from the current charge position and returns the
// harvested gain — Run supplies the analytic implementation and the
// fixed-step test oracle a chunked one; everything else is shared, so the
// two paths cannot drift apart on policy.
func (s *Simulator) interact(et float64, baseCost sessionCost, stats *Stats, session func(durS float64) float64) {
	lux := s.cfg.Lux.Lux(et)
	ev := Event{T: et, V: s.harv.Cap.V, Exit: -1}

	// The passive circuit decides whether the MCU powers at all.
	if !s.detect.ok || s.detect.lux != lux {
		s.detect.lux = lux
		s.detect.hovered = s.array.DetectVoltage(lux, 0.95)
		s.detect.refVoc = s.array.Cell.Voc(lux)
		s.detect.clear = s.array.DetectVoltage(lux, 0)
		s.detect.ok = true
	}
	refVoc := s.detect.refVoc
	booted := s.event.Step(s.detect.hovered, refVoc, s.harv.Cap.V)
	switch {
	case !booted && refVoc < s.event.VWeakLight:
		ev.Outcome = BlockedWeakLight
	case !booted:
		ev.Outcome = BlockedLowSupercap
	default:
		s.event.SetHold(true)
		cost := baseCost
		exit := -1
		if len(s.cfg.ExitMACs) > 0 {
			exit, cost = s.chooseExit()
		}
		// The variadic attrs would heap-allocate per arrival even with
		// observability off; only build the span when someone listens.
		var sp obs.Span
		if s.cfg.Obs != nil {
			sp = s.cfg.Obs.StartSpan("firmware.session",
				obs.F64("t", et), obs.F64("v", ev.V), obs.F64("lux", lux))
		}
		// Firmware policy: proceed only when V > V_θ (and, with a
		// multi-exit ladder, only when some rung fits the budget).
		switch {
		case s.harv.Cap.V <= s.cfg.VTheta, len(s.cfg.ExitMACs) > 0 && exit < 0:
			ev.Outcome = RejectedVTheta
			ev.EnergyJ = s.profile.WakeUpS * s.profile.WakeUpW
			s.harv.Cap.Drain(ev.EnergyJ)
			// The boot attempt is detection work: it spent the wake
			// transition learning there was nothing it could do.
			s.chargePhase(&sp, energy.AccountDetect, "firmware.detect", ev.EnergyJ)
		case s.harv.Cap.Drain(cost.TotalJ()):
			ev.Outcome = Completed
			ev.EnergyJ = cost.TotalJ()
			ev.Exit = exit
			if exit >= 0 {
				stats.ExitCounts[exit]++
			}
			s.chargePhase(&sp, energy.AccountDetect, "firmware.detect", cost.WakeJ)
			s.chargePhase(&sp, energy.AccountSense, "firmware.sense", cost.SenseJ)
			s.chargePhase(&sp, energy.AccountInfer, "firmware.infer", cost.InferJ)
			// Sensing cells are switched out of the harvesting
			// branch for the session.
			stats.HarvestedJ += session(cost.DurS)
		default:
			// Not enough stored energy: the session browns out
			// partway and the supercap is left nearly empty. The
			// partial spend is attributed in session order —
			// wake, then sensing, then inference — each phase
			// clipped by what was actually drained.
			ev.Outcome = BrownOut
			ev.EnergyJ = s.harv.Cap.Energy() * 0.9
			s.harv.Cap.Drain(ev.EnergyJ)
			remain := ev.EnergyJ
			for _, ph := range []struct {
				acc  energy.Account
				name string
				j    float64
			}{
				{energy.AccountDetect, "firmware.detect", cost.WakeJ},
				{energy.AccountSense, "firmware.sense", cost.SenseJ},
				{energy.AccountInfer, "firmware.infer", cost.InferJ},
			} {
				j := math.Min(remain, ph.j)
				s.chargePhase(&sp, ph.acc, ph.name, j)
				remain -= j
			}
		}
		s.event.SetHold(false)
		s.event.Step(s.detect.clear, refVoc, s.harv.Cap.V)
		if s.cfg.Obs != nil {
			sp.End(obs.Str("outcome", ev.Outcome.String()), obs.Int("exit", ev.Exit))
		}
	}
	s.books.ObserveInteraction(ev.EnergyJ)
	stats.ConsumedJ += ev.EnergyJ
	stats.Counts[ev.Outcome]++
	stats.Interactions++
	if !s.leanStats {
		stats.Events = append(stats.Events, ev)
	}
}

// PoissonArrivals draws event times with the given mean inter-arrival
// seconds over the duration.
func PoissonArrivals(rng *rand.Rand, duration, meanGapS float64) []float64 {
	out := make([]float64, 0, int(duration/meanGapS)+8)
	t := rng.ExpFloat64() * meanGapS
	for t < duration {
		out = append(out, t)
		t += rng.ExpFloat64() * meanGapS
	}
	return out
}
