// Package powertrace records power-versus-time traces of simulated
// end-to-end inferences, playing the role of the Qoitech OTII-ACE-PRO
// analyzer in the paper's measurement setup (Fig 2). Traces are stored as
// labeled constant-power segments; energy integrals per phase (E_E, E_S,
// E_M) fall out exactly, and an ASCII renderer reproduces the trace plots.
package powertrace

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"solarml/internal/obs/energy"
)

// Phase labels a trace segment with its role in the end-to-end pipeline.
type Phase int

const (
	// PhaseOff: system fully disconnected (SolarML idle state).
	PhaseOff Phase = iota
	// PhaseDeepSleep: MCU in deep sleep waiting for events (E_E).
	PhaseDeepSleep
	// PhaseWakeUp: boot/restore transition (E_E).
	PhaseWakeUp
	// PhaseSampling: tickless sensor sampling (E_S).
	PhaseSampling
	// PhaseProcessing: pre-processing of gathered data (E_S).
	PhaseProcessing
	// PhaseInference: model execution (E_M).
	PhaseInference
	// PhaseStandby: RAM-retention standby between inferences (E_E).
	PhaseStandby
	numPhases
)

// String returns the phase name.
func (p Phase) String() string {
	switch p {
	case PhaseOff:
		return "off"
	case PhaseDeepSleep:
		return "deep-sleep"
	case PhaseWakeUp:
		return "wake-up"
	case PhaseSampling:
		return "sampling"
	case PhaseProcessing:
		return "processing"
	case PhaseInference:
		return "inference"
	case PhaseStandby:
		return "standby"
	}
	return "unknown"
}

// Category returns which of the paper's three energy buckets the phase
// belongs to: E_E (event detection / idle), E_S (sensing), or E_M (model).
func (p Phase) Category() Category {
	switch p {
	case PhaseOff, PhaseDeepSleep, PhaseWakeUp, PhaseStandby:
		return CatEvent
	case PhaseSampling, PhaseProcessing:
		return CatSensing
	case PhaseInference:
		return CatModel
	}
	return CatEvent
}

// Account maps the phase onto the joule ledger's account taxonomy
// (internal/obs/energy): wake-up transitions are event-detection work
// (detect), sampling and pre-processing are sensing, inference is infer,
// and every retention state books against mcu-sleep.
func (p Phase) Account() energy.Account {
	switch p {
	case PhaseWakeUp:
		return energy.AccountDetect
	case PhaseSampling, PhaseProcessing:
		return energy.AccountSense
	case PhaseInference:
		return energy.AccountInfer
	}
	return energy.AccountSleep
}

// Category is one of the paper's E_E / E_S / E_M energy buckets.
type Category int

const (
	// CatEvent is E_E: event detection, sleep, wake-up, standby.
	CatEvent Category = iota
	// CatSensing is E_S: sampling and pre-processing.
	CatSensing
	// CatModel is E_M: model inference.
	CatModel
)

// String returns the paper's symbol for the category.
func (c Category) String() string {
	switch c {
	case CatEvent:
		return "E_E"
	case CatSensing:
		return "E_S"
	case CatModel:
		return "E_M"
	}
	return "?"
}

// Segment is a constant-power span of the trace.
type Segment struct {
	Phase   Phase
	Seconds float64
	PowerW  float64
}

// Energy returns the segment's energy in joules.
func (s Segment) Energy() float64 { return s.Seconds * s.PowerW }

// Recorder accumulates segments.
type Recorder struct {
	segments []Segment
}

// New returns an empty recorder.
func New() *Recorder { return &Recorder{} }

// Record appends a constant-power segment.
func (r *Recorder) Record(phase Phase, seconds, powerW float64) {
	if seconds < 0 || powerW < 0 {
		panic(fmt.Sprintf("powertrace: invalid segment %v s @ %v W", seconds, powerW))
	}
	if seconds == 0 {
		return
	}
	r.segments = append(r.segments, Segment{Phase: phase, Seconds: seconds, PowerW: powerW})
}

// Segments returns the recorded segments in order.
func (r *Recorder) Segments() []Segment { return r.segments }

// Duration returns the total trace length in seconds.
func (r *Recorder) Duration() float64 {
	t := 0.0
	for _, s := range r.segments {
		t += s.Seconds
	}
	return t
}

// TotalEnergy returns the integral of power over the whole trace in joules.
func (r *Recorder) TotalEnergy() float64 {
	e := 0.0
	for _, s := range r.segments {
		e += s.Energy()
	}
	return e
}

// EnergyByPhase returns per-phase energy integrals in joules.
func (r *Recorder) EnergyByPhase() map[Phase]float64 {
	out := make(map[Phase]float64)
	for _, s := range r.segments {
		out[s.Phase] += s.Energy()
	}
	return out
}

// EnergyByCategory returns the E_E / E_S / E_M split in joules.
func (r *Recorder) EnergyByCategory() map[Category]float64 {
	out := make(map[Category]float64)
	for _, s := range r.segments {
		out[s.Phase.Category()] += s.Energy()
	}
	return out
}

// CategoryShares returns each bucket's fraction of total energy.
func (r *Recorder) CategoryShares() map[Category]float64 {
	total := r.TotalEnergy()
	out := make(map[Category]float64)
	if total == 0 {
		return out
	}
	for c, e := range r.EnergyByCategory() {
		out[c] = e / total
	}
	return out
}

// PowerAt returns the instantaneous power at time t seconds, 0 beyond the
// trace end.
func (r *Recorder) PowerAt(t float64) float64 {
	if t < 0 {
		return 0
	}
	for _, s := range r.segments {
		if t < s.Seconds {
			return s.PowerW
		}
		t -= s.Seconds
	}
	return 0
}

// Samples discretizes the trace at the given sample rate (Hz), emulating
// the OTII analyzer's 50 kHz capture.
func (r *Recorder) Samples(rateHz float64) []float64 {
	n := int(math.Ceil(r.Duration() * rateHz))
	out := make([]float64, n)
	for i := range out {
		out[i] = r.PowerAt(float64(i) / rateHz)
	}
	return out
}

// ASCII renders the trace as a fixed-size chart with log-scaled power, the
// textual equivalent of Fig 2.
func (r *Recorder) ASCII(width, height int) string {
	if width < 10 || height < 3 {
		panic("powertrace: chart too small")
	}
	dur := r.Duration()
	if dur == 0 {
		return "(empty trace)\n"
	}
	// Log scale between the smallest non-zero and largest power.
	minP, maxP := math.Inf(1), 0.0
	for _, s := range r.segments {
		if s.PowerW > 0 && s.PowerW < minP {
			minP = s.PowerW
		}
		if s.PowerW > maxP {
			maxP = s.PowerW
		}
	}
	if maxP == 0 {
		return "(all-zero trace)\n"
	}
	if minP == maxP {
		minP = maxP / 10
	}
	grid := make([][]byte, height)
	for y := range grid {
		grid[y] = []byte(strings.Repeat(" ", width))
	}
	logMin, logMax := math.Log10(minP), math.Log10(maxP)
	for x := 0; x < width; x++ {
		p := r.PowerAt(dur * (float64(x) + 0.5) / float64(width))
		if p <= 0 {
			continue
		}
		frac := (math.Log10(p) - logMin) / (logMax - logMin)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		top := height - 1 - int(frac*float64(height-1))
		for y := height - 1; y >= top; y-- {
			grid[y][x] = '#'
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "power [%.3g .. %.3g W], duration %.3g s\n", minP, maxP, dur)
	for _, row := range grid {
		b.Write(row)
		b.WriteByte('\n')
	}
	return b.String()
}

// Summary prints per-phase energies sorted by phase order, in µJ, matching
// the annotations on Fig 2.
func (r *Recorder) Summary() string {
	by := r.EnergyByPhase()
	phases := make([]Phase, 0, len(by))
	for p := range by {
		phases = append(phases, p)
	}
	sort.Slice(phases, func(i, j int) bool { return phases[i] < phases[j] })
	var b strings.Builder
	for _, p := range phases {
		fmt.Fprintf(&b, "%-11s %10.1f µJ\n", p, by[p]*1e6)
	}
	fmt.Fprintf(&b, "%-11s %10.1f µJ\n", "total", r.TotalEnergy()*1e6)
	return b.String()
}
