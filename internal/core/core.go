// Package core is the SolarML platform facade: it wires the solar array,
// harvester, passive event-detection circuit, and MCU power model into
// end-to-end inference sessions, and provides the system-level comparisons
// of the paper's evaluation — the Fig 1 energy-cost distribution across
// idle/detection schemes, the Fig 2 energy traces, the Fig 6 sleep
// mechanism, and the §V-D end-to-end energy and harvesting-time numbers.
package core

import (
	"fmt"

	"solarml/internal/circuit"
	"solarml/internal/dataset"
	"solarml/internal/detect"
	"solarml/internal/dsp"
	"solarml/internal/energymodel"
	"solarml/internal/harvest"
	"solarml/internal/mcu"
	"solarml/internal/nas"
	"solarml/internal/nn"
	"solarml/internal/obs"
	"solarml/internal/powertrace"
	"solarml/internal/solar"
)

// Platform bundles the hardware subsystems of one SolarML device.
type Platform struct {
	Array     *solar.Array
	Harvester *harvest.Harvester
	Event     *circuit.EventCircuit
	Detector  *detect.SolarML
	Coeff     energymodel.Coefficients
	Profile   mcu.PowerProfile
	// Obs, when set, wraps every RunSession in a core.session span (name,
	// task, idle mode, energy buckets) and replays the session's power
	// trace into the event stream; it also propagates to the harvester.
	Obs *obs.Recorder
}

// NewPlatform returns the calibrated prototype.
func NewPlatform() *Platform {
	return &Platform{
		Array:     solar.NewArray(),
		Harvester: harvest.New(),
		Event:     circuit.NewEventCircuit(),
		Detector:  detect.NewSolarML(),
		Coeff:     energymodel.DefaultCoefficients(),
		Profile:   mcu.NRF52840(),
	}
}

// IdleMode selects what the system does while waiting for an event.
type IdleMode int

const (
	// IdleOff: fully off, woken by the passive circuit (SolarML).
	IdleOff IdleMode = iota
	// IdleDeepSleep: MCU deep sleep, woken by a low-power sensor.
	IdleDeepSleep
	// IdleContinuous: MCU continuously samples to detect events itself.
	IdleContinuous
)

// String returns the idle-mode name.
func (m IdleMode) String() string {
	switch m {
	case IdleOff:
		return "off"
	case IdleDeepSleep:
		return "deep-sleep"
	case IdleContinuous:
		return "continuous"
	}
	return "unknown"
}

// SessionConfig describes one end-to-end inference session.
type SessionConfig struct {
	// Name labels the configuration in reports.
	Name string
	// Detector provides the event-detection energy; nil means detection
	// is folded into the idle mode (continuous monitoring).
	Detector detect.Detector
	// Idle selects the waiting behaviour, IdleS its duration.
	Idle  IdleMode
	IdleS float64
	// Task and the matching sensing configuration.
	Task    nas.Task
	Gesture dataset.GestureConfig
	Audio   dsp.FrontEndConfig
	// InferMACs is the model's per-kind MAC breakdown.
	InferMACs nn.KindMACs
	// SenseSeconds overrides the sampling duration (0 selects the task
	// default: the gesture length or the audio clip length). Systems
	// with short capture windows (ECG bursts, pressure taps) set it.
	SenseSeconds float64
	// StandbyS is the post-inference RAM-retention window.
	StandbyS float64
}

// SessionReport is the outcome of a simulated session.
type SessionReport struct {
	Name  string
	Trace *powertrace.Recorder
	// EE, ES, EM are the paper's three energy buckets in joules;
	// Total is their sum.
	EE, ES, EM, Total float64
}

// Shares returns the E_E/E_S/E_M fractions.
func (r *SessionReport) Shares() (ee, es, em float64) {
	if r.Total == 0 {
		return 0, 0, 0
	}
	return r.EE / r.Total, r.ES / r.Total, r.EM / r.Total
}

// String renders a one-line summary.
func (r *SessionReport) String() string {
	ee, es, em := r.Shares()
	return fmt.Sprintf("%-22s total %8.0f µJ  E_E %4.1f%%  E_S %4.1f%%  E_M %4.1f%%",
		r.Name, r.Total*1e6, ee*100, es*100, em*100)
}

// RunSession simulates one end-to-end inference: idle wait → event
// detection → wake-up → sampling → pre-processing → inference → standby.
func (p *Platform) RunSession(cfg SessionConfig) (*SessionReport, error) {
	sp := p.Obs.StartSpan("core.session",
		obs.Str("name", cfg.Name), obs.Str("task", cfg.Task.String()),
		obs.Str("idle", cfg.Idle.String()), obs.F64("idle_s", cfg.IdleS))
	rep, err := p.runSession(cfg)
	if err != nil {
		sp.End(obs.Str("error", err.Error()))
		return nil, err
	}
	if p.Obs.Enabled() {
		rep.Trace.ExportObs(p.Obs, cfg.Name)
	}
	sp.End(obs.F64("e_e_j", rep.EE), obs.F64("e_s_j", rep.ES),
		obs.F64("e_m_j", rep.EM), obs.F64("total_j", rep.Total))
	return rep, nil
}

// runSession is the uninstrumented session simulation.
func (p *Platform) runSession(cfg SessionConfig) (*SessionReport, error) {
	dev := &mcu.Device{Profile: p.Profile, Trace: powertrace.New()}
	// Idle + detection.
	switch cfg.Idle {
	case IdleOff:
		// MCU draws nothing; the passive detector's standby drain is the
		// only cost, recorded as a deep-sleep-category segment.
		det := cfg.Detector
		if det == nil {
			det = p.Detector
		}
		lo, hi := det.WindowEnergy(cfg.IdleS)
		detPower := (lo + hi) / 2 / cfg.IdleS
		dev.Trace.Record(powertrace.PhaseDeepSleep, cfg.IdleS, detPower)
	case IdleDeepSleep:
		// Deep sleep, optionally with an external wake-up detector; with
		// no detector a timer (RTC) wake is assumed, as in the Fig 2
		// measurement setup.
		detPower := 0.0
		if cfg.Detector != nil {
			lo, hi := cfg.Detector.WindowEnergy(cfg.IdleS)
			detPower = (lo + hi) / 2 / cfg.IdleS
		}
		dev.Trace.Record(powertrace.PhaseDeepSleep, cfg.IdleS, p.Profile.DeepSleepW+detPower)
	case IdleContinuous:
		// The MCU itself samples at low rate to spot events.
		dev.Trace.Record(powertrace.PhaseDeepSleep, cfg.IdleS, p.Profile.TicklessBaseW)
	default:
		return nil, fmt.Errorf("core: unknown idle mode %d", cfg.Idle)
	}
	dev.WakeUp()

	// Sampling + pre-processing.
	switch cfg.Task {
	case nas.TaskGesture:
		if err := cfg.Gesture.Validate(); err != nil {
			return nil, err
		}
		senseS := cfg.SenseSeconds
		if senseS <= 0 {
			senseS = dataset.GestureDurationS
		}
		bits := cfg.Gesture.Quant.EffectiveBits()
		dev.SampleGesture(cfg.Gesture.Channels, float64(cfg.Gesture.RateHz), senseS, bits)
		samples := int64(float64(cfg.Gesture.Channels) * float64(cfg.Gesture.RateHz) * senseS)
		dev.Process(3 * samples)
	case nas.TaskKWS:
		if err := cfg.Audio.Validate(); err != nil {
			return nil, err
		}
		senseS := cfg.SenseSeconds
		if senseS <= 0 {
			senseS = dataset.AudioDurationS
		}
		dev.SampleAudio(senseS)
		dev.ProcessDSP(cfg.Audio.FrontEndMACs(int(dataset.AudioRateHz * senseS)))
	default:
		return nil, fmt.Errorf("core: unknown task %d", cfg.Task)
	}

	// Inference.
	dev.Infer(p.Coeff.TrueEnergy(cfg.InferMACs))

	// Standby window for a follow-up interaction.
	if cfg.StandbyS > 0 {
		dev.Standby(cfg.StandbyS)
	}

	by := dev.Trace.EnergyByCategory()
	rep := &SessionReport{
		Name:  cfg.Name,
		Trace: dev.Trace,
		EE:    by[powertrace.CatEvent],
		ES:    by[powertrace.CatSensing],
		EM:    by[powertrace.CatModel],
	}
	rep.Total = rep.EE + rep.ES + rep.EM
	return rep, nil
}

// SetObs attaches the recorder to the platform and its harvester.
func (p *Platform) SetObs(rec *obs.Recorder) {
	p.Obs = rec
	if p.Harvester != nil {
		p.Harvester.Obs = rec
	}
}

// HarvestTime returns the seconds of charging at the given illuminance
// needed to fund one session of the given energy.
func (p *Platform) HarvestTime(energyJ, lux float64) float64 {
	return p.Harvester.TimeToHarvest(energyJ, lux)
}
