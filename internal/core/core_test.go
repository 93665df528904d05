package core

import (
	"math"
	"strings"
	"testing"

	"solarml/internal/dataset"
	"solarml/internal/nas"
	"solarml/internal/powertrace"
	"solarml/internal/quant"
)

func TestRunSessionSolarMLGesture(t *testing.T) {
	p := NewPlatform()
	cfg := SolarMLConfig("solarml-gesture", nas.TaskGesture,
		dataset.GestureConfig{Channels: 5, RateHz: 60, Quant: quant.Config{Res: quant.Int, Bits: 8}},
		defaultAudioFrontEnd(), muNASGestureMACs(), 5)
	rep, err := p.RunSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total <= 0 || rep.EE <= 0 || rep.ES <= 0 || rep.EM <= 0 {
		t.Fatalf("report %+v", rep)
	}
	if math.Abs(rep.Total-(rep.EE+rep.ES+rep.EM)) > 1e-12 {
		t.Fatal("total must equal the sum of buckets")
	}
	ee, es, em := rep.Shares()
	if math.Abs(ee+es+em-1) > 1e-9 {
		t.Fatal("shares must sum to 1")
	}
}

func TestSolarMLBeatsPSBaseline(t *testing.T) {
	// With identical sensing and model, the SolarML idle scheme alone must
	// cut total energy versus deep sleep + proximity sensor.
	p := NewPlatform()
	g := defaultGestureSensing()
	macs := muNASGestureMACs()
	sml, err := p.RunSession(SolarMLConfig("sml", nas.TaskGesture, g, defaultAudioFrontEnd(), macs, 5))
	if err != nil {
		t.Fatal(err)
	}
	ps, err := p.RunSession(PSBaselineConfig("ps", nas.TaskGesture, g, defaultAudioFrontEnd(), macs, 5))
	if err != nil {
		t.Fatal(err)
	}
	if sml.Total >= ps.Total {
		t.Fatalf("SolarML %v µJ should undercut PS %v µJ", sml.Total*1e6, ps.Total*1e6)
	}
	if sml.EE >= ps.EE {
		t.Fatal("the saving must come from E_E")
	}
}

func TestFig1SystemsShapes(t *testing.T) {
	p := NewPlatform()
	systems := Fig1Systems()
	if len(systems) != 6 {
		t.Fatalf("%d systems, want 6", len(systems))
	}
	reports := make([]*SessionReport, len(systems))
	for i, cfg := range systems {
		rep, err := p.RunSession(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		reports[i] = rep
	}
	// Continuous-monitoring systems are event-detection dominated
	// (paper: up to ≈70%).
	for _, i := range []int{0, 1} {
		ee, _, _ := reports[i].Shares()
		if ee < 0.5 {
			t.Fatalf("%s E_E share %.2f, expected >0.5 for continuous monitoring", reports[i].Name, ee)
		}
	}
	// Deep-sleep systems spend much less on E_E (paper: ≈15%).
	for _, i := range []int{2, 3} {
		ee, _, _ := reports[i].Shares()
		if ee > 0.40 {
			t.Fatalf("%s E_E share %.2f, expected smaller for deep sleep", reports[i].Name, ee)
		}
	}
	// The paper's own tasks (#5, #6) are sensing dominated (>50%).
	for _, i := range []int{4, 5} {
		_, es, _ := reports[i].Shares()
		if es < 0.5 {
			t.Fatalf("%s E_S share %.2f, paper says sensing >50%%", reports[i].Name, es)
		}
	}
}

func TestFig2SharesMatchPaper(t *testing.T) {
	p := NewPlatform()
	scenarios := Fig2Scenarios()
	// Gesture: E_E 38%, E_S 47%, E_M 15%.
	rep, err := p.RunSession(scenarios[0])
	if err != nil {
		t.Fatal(err)
	}
	ee, es, em := rep.Shares()
	if math.Abs(ee-0.38) > 0.10 || math.Abs(es-0.47) > 0.10 || math.Abs(em-0.15) > 0.08 {
		t.Fatalf("gesture shares E_E %.2f E_S %.2f E_M %.2f, paper 0.38/0.47/0.15", ee, es, em)
	}
	// KWS: E_E 29%, E_S 53%, E_M 18%.
	rep, err = p.RunSession(scenarios[1])
	if err != nil {
		t.Fatal(err)
	}
	ee, es, em = rep.Shares()
	if math.Abs(ee-0.29) > 0.10 || math.Abs(es-0.53) > 0.12 || math.Abs(em-0.18) > 0.09 {
		t.Fatalf("KWS shares E_E %.2f E_S %.2f E_M %.2f, paper 0.29/0.53/0.18", ee, es, em)
	}
}

func TestSimulateSleepMechanismSingle(t *testing.T) {
	p := NewPlatform()
	rep, err := p.SimulateSleepMechanism(500, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SecondInference {
		t.Fatal("no re-hover requested")
	}
	if len(rep.Events) < 4 {
		t.Fatalf("event log too short: %v", rep.Events)
	}
	by := rep.Trace.EnergyByPhase()
	if by[powertrace.PhaseInference] <= 0 {
		t.Fatal("no inference recorded")
	}
	// Exactly one inference segment.
	n := 0
	for _, s := range rep.Trace.Segments() {
		if s.Phase == powertrace.PhaseInference {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("%d inference segments, want 1", n)
	}
}

func TestSimulateSleepMechanismResume(t *testing.T) {
	p := NewPlatform()
	rep, err := p.SimulateSleepMechanism(500, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SecondInference {
		t.Fatal("re-hover must trigger a second inference")
	}
	n := 0
	for _, s := range rep.Trace.Segments() {
		if s.Phase == powertrace.PhaseInference {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("%d inference segments, want 2", n)
	}
	// Only one wake-up: the resume path must not cold boot.
	w := 0
	for _, s := range rep.Trace.Segments() {
		if s.Phase == powertrace.PhaseWakeUp {
			w++
		}
	}
	if w != 1 {
		t.Fatalf("%d wake-ups, want 1 (standby resume must be warm)", w)
	}
}

func TestSimulateSleepMechanismWeakLight(t *testing.T) {
	p := NewPlatform()
	if _, err := p.SimulateSleepMechanism(5, false); err == nil {
		t.Fatal("weak light must prevent the session (N2 guard)")
	}
}

func TestSessionReportString(t *testing.T) {
	p := NewPlatform()
	rep, err := p.RunSession(Fig2Scenarios()[0])
	if err != nil {
		t.Fatal(err)
	}
	s := rep.String()
	for _, want := range []string{"E_E", "E_S", "E_M", "µJ"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q: %s", want, s)
		}
	}
}

func TestRunSessionValidation(t *testing.T) {
	p := NewPlatform()
	bad := SolarMLConfig("bad", nas.TaskGesture,
		dataset.GestureConfig{Channels: 0, RateHz: 60, Quant: quant.Config{Res: quant.Int, Bits: 8}},
		defaultAudioFrontEnd(), muNASGestureMACs(), 5)
	if _, err := p.RunSession(bad); err == nil {
		t.Fatal("invalid sensing config must be rejected")
	}
}

func TestIdleModeStrings(t *testing.T) {
	if IdleOff.String() != "off" || IdleDeepSleep.String() != "deep-sleep" || IdleContinuous.String() != "continuous" {
		t.Fatal("idle mode names")
	}
}
