package fleetobs

import "testing"

// TestHotPathAllocs pins a fleet worker's progress report at zero
// allocations per call.
func TestHotPathAllocs(t *testing.T) {
	in := NewInspector("devices", 1000, 4)
	if n := testing.AllocsPerRun(1000, func() {
		in.Advance(2, 1, 3600)
	}); n != 0 {
		t.Fatalf("Advance allocates %v per op, want 0", n)
	}
}

// TestNilInstruments checks a nil inspector is a safe no-op, like the base
// obs instruments.
func TestNilInstruments(t *testing.T) {
	var in *Inspector
	in.Advance(0, 1, 1)
	in.Finish()
	in.SetAccounts(func() map[string]float64 { return nil })
	if st := in.Status(); st.Done != 0 {
		t.Fatal("nil inspector status non-zero")
	}
}

// TestRingDownsamples fills the ring past capacity and checks it compacts
// instead of growing, keeps chronological order, and retains the first point.
func TestRingDownsamples(t *testing.T) {
	r := newRing(8, 0.1)
	for i := 0; i < 1000; i++ {
		r.add(Point{TS: float64(i), Done: int64(i)})
	}
	pts := r.snapshot()
	if len(pts) > 8 {
		t.Fatalf("ring grew past capacity: %d points", len(pts))
	}
	if len(pts) == 0 || pts[0].TS != 0 {
		t.Fatalf("first point lost: %+v", pts)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].TS <= pts[i-1].TS {
			t.Fatalf("non-monotone series at %d: %+v", i, pts)
		}
	}
	// Gap must have widened well past the initial 0.1 s.
	if g := r.add(Point{TS: 1e9}); g <= 0.1 {
		t.Fatalf("gap did not widen: %g", g)
	}
}

// TestRingGapFilter checks points inside the minimum gap are dropped.
func TestRingGapFilter(t *testing.T) {
	r := newRing(64, 1.0)
	r.add(Point{TS: 0})
	r.add(Point{TS: 0.5}) // inside gap — dropped
	r.add(Point{TS: 1.5})
	if n := len(r.snapshot()); n != 2 {
		t.Fatalf("got %d points, want 2", n)
	}
}
