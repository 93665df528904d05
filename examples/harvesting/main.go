// Harvesting example: sweep the illuminance from dim indoor light to a
// bright window and report how long the 25-cell array needs to charge the
// supercap for one digit-recognition or KWS inference — the §V-D
// harvesting-time experiment — plus a step-by-step supercap charging
// simulation and the weak-light guard behaviour. Every joule flows through
// the energy ledger: the charging sim books harvest income and supercap
// leak, both Fig 2 sessions book their power phases, and the per-account
// balance is printed and left behind as harvesting_energy.csv.
package main

import (
	"fmt"
	"math"
	"os"

	"solarml/internal/circuit"
	"solarml/internal/core"
	"solarml/internal/harvest"
	"solarml/internal/obs/energy"
)

func main() {
	platform := core.NewPlatform()

	// §V-D session budgets (simulated SolarML sessions).
	const digitsJ = 5100e-6
	const kwsJ = 11600e-6

	fmt.Println("harvesting time per end-to-end inference")
	fmt.Printf("%8s %14s %14s %14s\n", "lux", "power (µW)", "digits (s)", "KWS (s)")
	for _, lux := range []float64{100, 250, 500, 750, 1000, 2000} {
		h := harvest.New()
		p := h.InputPower(lux, false)
		fmt.Printf("%8.0f %14.1f %14.1f %14.1f\n",
			lux, p*1e6, h.TimeToHarvest(digitsJ, lux), h.TimeToHarvest(kwsJ, lux))
	}

	// Supercap charging simulation: start just below the boot threshold
	// and charge at 500 lux until the MCU can run. The harvester books the
	// income and the supercap leak as it charges; the ledger takes both
	// once the charge is done.
	fmt.Println("\nsupercap charging at 500 lux (1 F, from 1.75 V):")
	led := energy.NewLedger(nil)
	h := harvest.New()
	h.Cap.V = 1.75
	target := platform.Event.VMinSupercap
	for t := 0.0; h.Cap.V < target; t += 10 {
		h.Charge(500, 10, false)
		if math.Mod(t, 50) == 0 {
			fmt.Printf("  t=%4.0f s  V=%.4f V  E=%.1f mJ\n", t+10, h.Cap.V, h.Cap.Energy()*1e3)
		}
	}
	fmt.Printf("  boot threshold %.2f V reached\n", target)
	led.Harvest(h.IncomeJ)
	led.Charge(energy.AccountLeak, h.LeakJ)

	// Weak-light guard: the N2 MOSFET keeps the MCU disconnected when the
	// reference cell cannot reach its gate threshold.
	fmt.Println("\nweak-light guard (N2):")
	for _, lux := range []float64{10, 30, 100, 500} {
		ev := circuit.NewEventCircuit()
		hovered := platform.Array.DetectVoltage(lux, 0.95)
		ref := platform.Array.Cell.Voc(lux)
		boots := ev.Step(hovered, ref, 3.0)
		fmt.Printf("  %4.0f lux: reference cell %.3f V → boot on hover: %v\n", lux, ref, boots)
	}

	// Per-phase joule balance: replay both Fig 2 sessions and book every
	// power phase (wake-up → detect, sampling/processing → sense,
	// inference → infer, sleep) into the same ledger that watched the
	// charging sim, then print the balance and leave the CSV artifact.
	for _, cfg := range core.Fig2Scenarios() {
		rep, err := platform.RunSession(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		rep.Trace.ChargeLedger(led)
	}
	fmt.Println("\nenergy ledger (charging sim + both Fig 2 sessions):")
	fmt.Print(led.Summary())
	f, err := os.Create("harvesting_energy.csv")
	if err == nil {
		err = led.WriteCSV(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	fmt.Println("wrote harvesting_energy.csv")
}
