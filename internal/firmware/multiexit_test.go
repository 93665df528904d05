package firmware

import (
	"testing"

	"solarml/internal/nn"
)

// exitLadder is a three-rung model ladder, shallow to deep.
func exitLadder() []nn.KindMACs {
	return []nn.KindMACs{
		nn.KindMACs{}.With(nn.KindConv, 40_000).With(nn.KindDense, 5_000),
		nn.KindMACs{}.With(nn.KindConv, 200_000).With(nn.KindDense, 20_000),
		nn.KindMACs{}.With(nn.KindConv, 900_000).With(nn.KindDense, 60_000),
	}
}

func TestMultiExitPrefersDeepestWhenRich(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ExitMACs = exitLadder()
	cfg.InitialV = 3.0 // plenty stored
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sim.Run(300, []float64{100, 200})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Counts[Completed] != 2 {
		t.Fatalf("expected both to complete: %s", stats.Summary())
	}
	if stats.ExitCounts[2] != 2 {
		t.Fatalf("rich supercap should use the deepest exit: %v", stats.ExitCounts)
	}
}

func TestMultiExitDegradesWhenPoor(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ExitMACs = exitLadder()
	cfg.VTheta = 2.0
	// Stored energy above V_θ: ½·(V²−V_θ²). Pick V so only the shallow
	// exits fit: session costs ≈2.3–4 mJ; V=2.0008 stores ≈1.6 mJ above
	// V_θ... too little for all; V=2.0015 ≈ 3 mJ fits rung 0/1 only.
	cfg.InitialV = 2.0015
	cfg.Lux = ConstantLux(80) // barely harvesting (but above weak-light cutoff)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sim.Run(20, []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Counts[Completed] != 1 {
		t.Fatalf("should complete via a shallow exit: %s", stats.Summary())
	}
	if stats.ExitCounts[2] != 0 {
		t.Fatalf("deep exit should be unaffordable: %v", stats.ExitCounts)
	}
	used := stats.Events[0].Exit
	if used != 0 && used != 1 {
		t.Fatalf("expected a shallow exit, got %d", used)
	}
}

func TestMultiExitRejectsWhenNothingFits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ExitMACs = exitLadder()
	cfg.VTheta = 2.0
	cfg.InitialV = 2.0001 // ≈0.2 mJ above V_θ: nothing fits
	cfg.Lux = ConstantLux(80)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sim.Run(10, []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Counts[RejectedVTheta] != 1 {
		t.Fatalf("expected a rejection: %s", stats.Summary())
	}
}

func TestMultiExitAdaptsAsEnergyAccumulates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ExitMACs = exitLadder()
	cfg.VTheta = 2.0
	cfg.InitialV = 2.002
	cfg.Lux = ConstantLux(500)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// First event immediately (little energy), second after two minutes
	// of harvesting (≈25 mJ more).
	stats, err := sim.Run(200, []float64{1, 150})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Counts[Completed] != 2 {
		t.Fatalf("both should complete: %s", stats.Summary())
	}
	first, second := stats.Events[0].Exit, stats.Events[1].Exit
	if second < first {
		t.Fatalf("more stored energy should not pick a shallower exit: %d then %d", first, second)
	}
	if second != 2 {
		t.Fatalf("after two minutes at 500 lux the deepest exit should fit, got %d", second)
	}
}
