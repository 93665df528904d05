package powertrace

import (
	"math"
	"strings"
	"testing"
)

func sampleTrace() *Recorder {
	r := New()
	r.Record(PhaseDeepSleep, 60, 45e-6)
	r.Record(PhaseWakeUp, 0.05, 6e-3)
	r.Record(PhaseSampling, 2, 1.8e-3)
	r.Record(PhaseInference, 0.08, 15e-3)
	r.Record(PhaseStandby, 1, 5e-6)
	return r
}

func TestEnergyIntegration(t *testing.T) {
	r := sampleTrace()
	want := 60*45e-6 + 0.05*6e-3 + 2*1.8e-3 + 0.08*15e-3 + 1*5e-6
	if got := r.TotalEnergy(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("TotalEnergy = %v, want %v", got, want)
	}
	if d := r.Duration(); math.Abs(d-63.13) > 1e-9 {
		t.Fatalf("Duration = %v", d)
	}
}

func TestEnergyByPhase(t *testing.T) {
	r := sampleTrace()
	by := r.EnergyByPhase()
	if math.Abs(by[PhaseSampling]-3.6e-3) > 1e-12 {
		t.Fatalf("sampling energy %v", by[PhaseSampling])
	}
	if math.Abs(by[PhaseInference]-1.2e-3) > 1e-12 {
		t.Fatalf("inference energy %v", by[PhaseInference])
	}
}

func TestCategoryMapping(t *testing.T) {
	cases := map[Phase]Category{
		PhaseOff: CatEvent, PhaseDeepSleep: CatEvent, PhaseWakeUp: CatEvent,
		PhaseStandby: CatEvent, PhaseSampling: CatSensing,
		PhaseProcessing: CatSensing, PhaseInference: CatModel,
	}
	for p, want := range cases {
		if got := p.Category(); got != want {
			t.Fatalf("%v categorized as %v, want %v", p, got, want)
		}
	}
}

func TestCategorySharesSumToOne(t *testing.T) {
	r := sampleTrace()
	shares := r.CategoryShares()
	sum := 0.0
	for _, v := range shares {
		if v < 0 || v > 1 {
			t.Fatalf("share out of range: %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("shares sum to %v", sum)
	}
}

func TestPowerAt(t *testing.T) {
	r := New()
	r.Record(PhaseSampling, 1, 2e-3)
	r.Record(PhaseInference, 1, 5e-3)
	if p := r.PowerAt(0.5); p != 2e-3 {
		t.Fatalf("PowerAt(0.5) = %v", p)
	}
	if p := r.PowerAt(1.5); p != 5e-3 {
		t.Fatalf("PowerAt(1.5) = %v", p)
	}
	if p := r.PowerAt(10); p != 0 {
		t.Fatalf("PowerAt beyond end = %v", p)
	}
	if p := r.PowerAt(-1); p != 0 {
		t.Fatalf("PowerAt(-1) = %v", p)
	}
}

func TestSamplesLength(t *testing.T) {
	r := New()
	r.Record(PhaseSampling, 0.1, 1e-3)
	s := r.Samples(50000) // OTII rate
	if len(s) != 5000 {
		t.Fatalf("50 kHz over 0.1 s should give 5000 samples, got %d", len(s))
	}
	for _, v := range s {
		if v != 1e-3 {
			t.Fatal("constant segment must sample constant")
		}
	}
}

func TestZeroDurationSegmentIgnored(t *testing.T) {
	r := New()
	r.Record(PhaseSampling, 0, 1)
	if len(r.Segments()) != 0 {
		t.Fatal("zero-length segment must be dropped")
	}
}

func TestRecordPanicsOnNegative(t *testing.T) {
	r := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Record(PhaseSampling, -1, 1)
}

func TestASCIIRendering(t *testing.T) {
	r := sampleTrace()
	art := r.ASCII(60, 8)
	if !strings.Contains(art, "#") {
		t.Fatal("chart must contain marks")
	}
	lines := strings.Split(strings.TrimRight(art, "\n"), "\n")
	if len(lines) != 9 { // header + 8 rows
		t.Fatalf("chart has %d lines", len(lines))
	}
	for _, l := range lines[1:] {
		if len(l) != 60 {
			t.Fatalf("row width %d", len(l))
		}
	}
}

func TestASCIIEmptyTrace(t *testing.T) {
	r := New()
	if got := r.ASCII(20, 4); got != "(empty trace)\n" {
		t.Fatalf("empty trace rendering: %q", got)
	}
}

func TestSummaryMentionsPhases(t *testing.T) {
	r := sampleTrace()
	s := r.Summary()
	for _, name := range []string{"deep-sleep", "sampling", "inference", "total"} {
		if !strings.Contains(s, name) {
			t.Fatalf("summary missing %q:\n%s", name, s)
		}
	}
}

func TestPhaseStrings(t *testing.T) {
	if PhaseOff.String() != "off" || PhaseInference.String() != "inference" {
		t.Fatal("phase names")
	}
	if CatEvent.String() != "E_E" || CatSensing.String() != "E_S" || CatModel.String() != "E_M" {
		t.Fatal("category symbols must match the paper")
	}
}
