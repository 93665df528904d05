package core

import (
	"fmt"

	"solarml/internal/dataset"
	"solarml/internal/detect"
	"solarml/internal/dsp"
	"solarml/internal/mcu"
	"solarml/internal/nas"
	"solarml/internal/nn"
	"solarml/internal/powertrace"
	"solarml/internal/quant"
)

// muNASGestureMACs is a representative μNAS-optimized gesture model
// (Fig 1 #5 / Fig 2 top): a small CNN whose inference lands near 1.2 mJ.
func muNASGestureMACs() nn.KindMACs {
	return nn.KindMACs{}.
		With(nn.KindConv, 480_000).
		With(nn.KindDense, 60_000).
		With(nn.KindMaxPool, 18_000).
		With(nn.KindNorm, 28_000)
}

// muNASKWSMACs is a representative μNAS-optimized KWS model
// (Fig 1 #6 / Fig 2 bottom): inference near 2.3 mJ.
func muNASKWSMACs() nn.KindMACs {
	return nn.KindMACs{}.
		With(nn.KindConv, 900_000).
		With(nn.KindDWConv, 120_000).
		With(nn.KindDense, 90_000).
		With(nn.KindMaxPool, 40_000).
		With(nn.KindNorm, 60_000)
}

// defaultGestureSensing is the full-fidelity sensing configuration used by
// sensing-unaware baselines.
func defaultGestureSensing() dataset.GestureConfig {
	return dataset.GestureConfig{
		Channels: 9, RateHz: 100,
		Quant: quant.Config{Res: quant.Float, Bits: 16},
	}
}

// defaultAudioFrontEnd is the standard 25 ms / 20 ms / 13-coefficient MFCC
// front-end.
func defaultAudioFrontEnd() dsp.FrontEndConfig {
	return dsp.FrontEndConfig{
		SampleRate: dataset.AudioRateHz, StripeMS: 20, DurationMS: 25, NumFeatures: 13,
	}
}

// Fig1Systems returns the six end-to-end configurations of Fig 1 with a 3 s
// event wait: two continuous-monitoring systems, two deep-sleep/actuator
// systems, and the paper's own gesture (#5) and audio (#6) tasks with
// μNAS-optimized models.
func Fig1Systems() []SessionConfig {
	const wait = 3
	return []SessionConfig{
		{
			// #1 PROS [12]: headband ECG, the MCU monitors continuously.
			Name: "#1 PROS (continuous)", Idle: IdleContinuous, IdleS: wait,
			Task: nas.TaskGesture,
			Gesture: dataset.GestureConfig{Channels: 1, RateHz: 50,
				Quant: quant.Config{Res: quant.Int, Bits: 8}},
			InferMACs:    nn.KindMACs{}.With(nn.KindConv, 120_000).With(nn.KindDense, 30_000),
			SenseSeconds: 0.5, // short ECG analysis window
		},
		{
			// #2 FabToys [21]: fabric pressure array, continuous polling.
			Name: "#2 FabToys (continuous)", Idle: IdleContinuous, IdleS: wait,
			Task: nas.TaskGesture,
			Gesture: dataset.GestureConfig{Channels: 4, RateHz: 25,
				Quant: quant.Config{Res: quant.Int, Bits: 8}},
			InferMACs:    nn.KindMACs{}.With(nn.KindDense, 80_000),
			SenseSeconds: 0.6, // brief pressure-tap capture
		},
		{
			// #3 Jokic et al. [22]: deep sleep + low-power camera trigger.
			Name: "#3 FaceRec (sleep+ToF)", Idle: IdleDeepSleep, IdleS: wait,
			Detector: detect.ToFSensor{},
			Task:     nas.TaskGesture,
			Gesture: dataset.GestureConfig{Channels: 9, RateHz: 80,
				Quant: quant.Config{Res: quant.Int, Bits: 8}},
			InferMACs: nn.KindMACs{}.With(nn.KindConv, 1_500_000).With(nn.KindDense, 120_000),
		},
		{
			// #4 Sabovic et al. [26]: battery-less node, deep sleep + PS.
			Name: "#4 TinyML node (sleep+PS)", Idle: IdleDeepSleep, IdleS: wait,
			Detector: detect.ProximitySensor{},
			Task:     nas.TaskGesture,
			Gesture: dataset.GestureConfig{Channels: 2, RateHz: 100,
				Quant: quant.Config{Res: quant.Int, Bits: 8}},
			InferMACs: nn.KindMACs{}.With(nn.KindConv, 700_000).With(nn.KindDense, 90_000),
		},
		{
			// #5 gesture recognition with a μNAS model (measured).
			Name: "#5 gesture (µNAS)", Idle: IdleDeepSleep, IdleS: wait,
			Detector:  detect.ProximitySensor{},
			Task:      nas.TaskGesture,
			Gesture:   defaultGestureSensing(),
			InferMACs: muNASGestureMACs(),
		},
		{
			// #6 audio KWS with a μNAS model (measured).
			Name: "#6 audio (µNAS)", Idle: IdleDeepSleep, IdleS: wait,
			Detector:  detect.ProximitySensor{},
			Task:      nas.TaskKWS,
			Audio:     defaultAudioFrontEnd(),
			InferMACs: muNASKWSMACs(),
		},
	}
}

// Fig2Scenarios returns the two energy-trace measurements of Fig 2: one
// minute of deep sleep (RTC wake) followed by a full gesture or KWS
// inference.
func Fig2Scenarios() []SessionConfig {
	return []SessionConfig{
		{
			Name: "gesture (Fig 2 top)", Idle: IdleDeepSleep, IdleS: 60,
			Task: nas.TaskGesture, Gesture: defaultGestureSensing(),
			InferMACs: muNASGestureMACs(),
		},
		{
			Name: "KWS (Fig 2 bottom)", Idle: IdleDeepSleep, IdleS: 60,
			Task: nas.TaskKWS, Audio: defaultAudioFrontEnd(),
			InferMACs: muNASKWSMACs(),
		},
	}
}

// Fig6Report captures the sleep-mechanism simulation: the power trace, a
// narrated event log, and whether the standby resume path was exercised.
type Fig6Report struct {
	Trace           *powertrace.Recorder
	Events          []string
	SecondInference bool
}

// SimulateSleepMechanism reproduces Fig 6: the platform is off until a
// hover powers it through the passive circuit, samples and infers, then
// holds a standby window; a second hover within the window triggers a
// second inference without a cold boot, otherwise the system powers down.
func (p *Platform) SimulateSleepMechanism(lux float64, rehover bool) (*Fig6Report, error) {
	rep := &Fig6Report{}
	dev := &mcu.Device{Profile: p.Profile, Trace: powertrace.New()}
	note := func(format string, args ...interface{}) {
		rep.Events = append(rep.Events, fmt.Sprintf(format, args...))
	}

	// Off, waiting. The passive detector is the only (≈2 µW) drain.
	const offWait = 5.0
	dev.Trace.Record(powertrace.PhaseOff, offWait, p.Detector.StandbyPowerW())
	note("t=%.1fs system off, passive detector armed", 0.0)

	// First hover: drive the real circuit and confirm it boots.
	v2Open := p.Array.DetectVoltage(lux, 0)
	v2Hover := p.Array.DetectVoltage(lux, 0.95)
	refVoc := p.Array.Cell.Voc(lux)
	capV := 3.0
	if !p.Event.Step(v2Hover, refVoc, capV) {
		return nil, fmt.Errorf("core: circuit failed to boot at %v lux", lux)
	}
	p.Event.SetHold(true)
	if !p.Event.Step(v2Open, refVoc, capV) {
		return nil, fmt.Errorf("core: latch failed to hold")
	}
	note("t=%.1fs hover detected, MCU powered (latched)", offWait)
	dev.WakeUp()

	// Sample until the ending hover, then process and infer.
	cfg := defaultGestureSensing()
	bits := cfg.Quant.EffectiveBits()
	dev.SampleGesture(cfg.Channels, float64(cfg.RateHz), dataset.GestureDurationS, bits)
	if p.Event.SenseV5(v2Hover) >= p.Event.VTrigger {
		return nil, fmt.Errorf("core: ending hover not visible on V5")
	}
	note("ending hover seen on V5, sampling stopped")
	samples := int64(float64(cfg.Channels) * float64(cfg.RateHz) * dataset.GestureDurationS)
	dev.Process(3 * samples)
	dev.Infer(p.Coeff.TrueEnergy(muNASGestureMACs()))
	note("first inference complete")

	// Standby window.
	const standby = 3.0
	dev.Standby(standby)
	if rehover {
		if !p.Event.Step(v2Hover, refVoc, capV) {
			return nil, fmt.Errorf("core: resume hover failed")
		}
		note("hover during standby: resuming without cold boot")
		dev.SampleGesture(cfg.Channels, float64(cfg.RateHz), dataset.GestureDurationS, bits)
		dev.Process(3 * samples)
		dev.Infer(p.Coeff.TrueEnergy(muNASGestureMACs()))
		rep.SecondInference = true
		note("second inference complete")
	}
	// Release the latch and power down.
	p.Event.SetHold(false)
	if p.Event.Step(v2Open, refVoc, capV) {
		return nil, fmt.Errorf("core: power-down failed")
	}
	dev.Trace.Record(powertrace.PhaseOff, 1, p.Detector.StandbyPowerW())
	note("latch released, system off")
	rep.Trace = dev.Trace
	return rep, nil
}
