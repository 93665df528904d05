package core

import (
	"solarml/internal/dataset"
	"solarml/internal/detect"
	"solarml/internal/dsp"
	"solarml/internal/nas"
	"solarml/internal/nn"
)

// SolarMLConfig builds the platform's own end-to-end session: fully off
// while idle, woken by the passive solar-cell detector (§V-D).
func SolarMLConfig(name string, task nas.Task, gesture dataset.GestureConfig,
	audio dsp.FrontEndConfig, macs nn.KindMACs, waitS float64) SessionConfig {
	return SessionConfig{
		Name: name, Detector: detect.NewSolarML(), Idle: IdleOff, IdleS: waitS,
		Task: task, Gesture: gesture, Audio: audio, InferMACs: macs,
	}
}

// PSBaselineConfig builds the SOTA baseline session of §V-D: deep sleep
// with a proximity-sensor wake-up (the PROS configuration) running a
// sensing-unaware model.
func PSBaselineConfig(name string, task nas.Task, gesture dataset.GestureConfig,
	audio dsp.FrontEndConfig, macs nn.KindMACs, waitS float64) SessionConfig {
	return SessionConfig{
		Name: name, Detector: detect.ProximitySensor{}, Idle: IdleDeepSleep, IdleS: waitS,
		Task: task, Gesture: gesture, Audio: audio, InferMACs: macs,
	}
}

// EndToEndComparison is the §V-D summary for one task.
type EndToEndComparison struct {
	SolarML  *SessionReport
	Baseline *SessionReport
	// Savings is 1 − SolarML.Total/Baseline.Total.
	Savings float64
	// HarvestTimeS maps illuminance (lux) to the charging time that funds
	// one SolarML session.
	HarvestTimeS map[float64]float64
}
