package harvest

import (
	"fmt"
	"math"
	"testing"
)

// ChargeShaded advances the harvester by dt seconds while a hand hovers
// over the array (a session in progress): handCover of the cells sit in
// the hand's shadow at handShade depth, on top of the sensing cells being
// switched out. It is the fixed-step counterpart AdvanceToShaded is
// checked against.
func (h *Harvester) ChargeShaded(lux, dt, handCover, handShade float64, sensingActive bool) {
	if dt < 0 {
		panic(fmt.Sprintf("harvest: negative interval %v", dt))
	}
	h.deposit(h.shadedPower(lux, handCover, handShade, sensingActive), dt)
}

// SimulateTimeToVoltage charges from the current supercap state until the
// target voltage is reached, in fixed steps, and returns the elapsed time.
// Returns +Inf if charging stalls (leak ≥ input). It is the brute-force
// oracle the closed-form TimeToVoltage and TimeToHarvest are pinned
// against: millions of sub-second steps for slow charges.
func (h *Harvester) SimulateTimeToVoltage(targetV, lux, stepS float64) float64 {
	if stepS <= 0 {
		panic("harvest: non-positive step")
	}
	t := 0.0
	const maxT = 1e6
	for h.Cap.V < targetV {
		before := h.Cap.V
		h.Charge(lux, stepS, false)
		t += stepS
		if h.Cap.V <= before || t > maxT {
			return math.Inf(1)
		}
	}
	return t
}

func TestInputPowerAt500Lux(t *testing.T) {
	h := New()
	p := h.InputPower(500, false) * 1e6
	if p < 200 || p > 225 {
		t.Fatalf("input power at 500 lux = %.1f µW, want ≈215", p)
	}
}

func TestInputPowerDarknessIsZero(t *testing.T) {
	h := New()
	if p := h.InputPower(0, false); p != 0 {
		t.Fatalf("dark input power %v", p)
	}
}

func TestChargeRaisesVoltage(t *testing.T) {
	h := New()
	h.Cap.V = 2.0
	v0 := h.Cap.V
	h.Charge(1000, 10, false)
	if h.Cap.V <= v0 {
		t.Fatal("charging must raise voltage")
	}
}

func TestHarvestTimeDigitsAt500Lux(t *testing.T) {
	// §V-D: digit recognition (6660 µJ) needs ≈31 s at 500 lux.
	h := New()
	got := h.TimeToHarvest(6660e-6, 500)
	if math.Abs(got-31) > 4 {
		t.Fatalf("digit harvest time at 500 lux = %.1f s, paper ≈31", got)
	}
}

func TestHarvestTimeKWSAt500Lux(t *testing.T) {
	// §V-D: KWS (12746 µJ) needs ≈57 s at 500 lux.
	h := New()
	got := h.TimeToHarvest(12746e-6, 500)
	if math.Abs(got-57) > 7 {
		t.Fatalf("KWS harvest time at 500 lux = %.1f s, paper ≈57", got)
	}
}

func TestHarvestTimeAt1000Lux(t *testing.T) {
	// §V-D: ≈19 s (digits) and ≈36 s (KWS) near a window.
	h := New()
	if got := h.TimeToHarvest(6660e-6, 1000); math.Abs(got-19) > 4 {
		t.Fatalf("digit harvest time at 1000 lux = %.1f s, paper ≈19", got)
	}
	if got := h.TimeToHarvest(12746e-6, 1000); math.Abs(got-36) > 7 {
		t.Fatalf("KWS harvest time at 1000 lux = %.1f s, paper ≈36", got)
	}
}

func TestHarvestTimeAt250LuxOneToTwoMinutes(t *testing.T) {
	// §V-D: one to two minutes in dim light.
	h := New()
	digits := h.TimeToHarvest(6660e-6, 250)
	kws := h.TimeToHarvest(12746e-6, 250)
	if digits < 50 || digits > 130 {
		t.Fatalf("digit harvest time at 250 lux = %.0f s", digits)
	}
	if kws < 60 || kws > 140 {
		t.Fatalf("KWS harvest time at 250 lux = %.0f s", kws)
	}
}

func TestHarvestTimeScalesInverselyWithLux(t *testing.T) {
	h := New()
	t500 := h.TimeToHarvest(1e-3, 500)
	t1000 := h.TimeToHarvest(1e-3, 1000)
	if t1000 >= t500 {
		t.Fatal("brighter light must harvest faster")
	}
	if math.Abs(t500/t1000-2) > 0.1 {
		t.Fatalf("expected ≈2× speedup from 500→1000 lux, got %.2f", t500/t1000)
	}
}

func TestHarvestStallsInDarkness(t *testing.T) {
	h := New()
	if !math.IsInf(h.TimeToHarvest(1e-3, 0), 1) {
		t.Fatal("darkness must never finish harvesting")
	}
}

func TestTimeToHarvestZeroEnergy(t *testing.T) {
	h := New()
	if h.TimeToHarvest(0, 500) != 0 {
		t.Fatal("zero energy needs zero time")
	}
}

func TestSimulateTimeToVoltageAgreesWithAnalytic(t *testing.T) {
	h := New()
	h.Cap.V = 2.0
	target := 2.01
	// Analytic: ΔE = ½C(V₁²-V₀²).
	need := 0.5 * h.Cap.Farads * (target*target - 4)
	analytic := h.TimeToHarvest(need, 500)
	sim := h.SimulateTimeToVoltage(target, 500, 0.1)
	if math.Abs(sim-analytic)/analytic > 0.1 {
		t.Fatalf("simulated %v s vs analytic %v s", sim, analytic)
	}
}

func TestSimulateStallReturnsInf(t *testing.T) {
	h := New()
	h.Cap.V = 2.0
	if !math.IsInf(h.SimulateTimeToVoltage(2.5, 0, 1), 1) {
		t.Fatal("dark simulation must stall")
	}
}

func TestChargeShadedBetweenBounds(t *testing.T) {
	mk := func() *Harvester {
		h := New()
		h.Cap.V = 2.0
		return h
	}
	full := mk()
	full.Charge(500, 10, true)
	shaded := mk()
	shaded.ChargeShaded(500, 10, 0.5, 0.9, true)
	dark := mk()
	dark.ChargeShaded(500, 10, 1, 1, true)
	if !(dark.Cap.Energy() <= shaded.Cap.Energy() && shaded.Cap.Energy() < full.Cap.Energy()) {
		t.Fatalf("shaded charging out of order: dark %v, shaded %v, full %v",
			dark.Cap.Energy(), shaded.Cap.Energy(), full.Cap.Energy())
	}
}
