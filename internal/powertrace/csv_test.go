package powertrace

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
)

// ReadCSV is the reader WriteCSV's output is checked against: it parses a
// (t_s, power_w) sample stream and reconstructs a trace by merging
// consecutive equal-power samples into segments. Phases are lost in the
// interchange format, so every segment is labeled PhaseSampling; energy
// integrals and rendering work as-is.
func ReadCSV(rd io.Reader) (*Recorder, error) {
	cr := csv.NewReader(rd)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) < 2 {
		return nil, fmt.Errorf("powertrace: CSV has no samples")
	}
	if len(rows[0]) != 2 || rows[0][0] != "t_s" || rows[0][1] != "power_w" {
		return nil, fmt.Errorf("powertrace: unexpected header %v", rows[0])
	}
	var times, powers []float64
	for i, row := range rows[1:] {
		if len(row) != 2 {
			return nil, fmt.Errorf("powertrace: row %d has %d fields", i+1, len(row))
		}
		t, err := strconv.ParseFloat(row[0], 64)
		if err != nil {
			return nil, fmt.Errorf("powertrace: row %d time: %w", i+1, err)
		}
		p, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			return nil, fmt.Errorf("powertrace: row %d power: %w", i+1, err)
		}
		if len(times) > 0 && t <= times[len(times)-1] {
			return nil, fmt.Errorf("powertrace: non-increasing time at row %d", i+1)
		}
		times = append(times, t)
		powers = append(powers, p)
	}
	if len(times) < 2 {
		return nil, fmt.Errorf("powertrace: need ≥2 samples to infer the sample period")
	}
	// Infer the sample period from the first gap (uniform sampling).
	dt := times[1] - times[0]
	out := New()
	runStart := 0
	for i := 1; i <= len(powers); i++ {
		if i < len(powers) && powers[i] == powers[runStart] {
			continue
		}
		out.Record(PhaseSampling, float64(i-runStart)*dt, powers[runStart])
		runStart = i
	}
	return out, nil
}

// MeanAbsPowerDiff compares two traces sampled at rateHz over their common
// duration, returning the mean absolute power difference in watts — used
// to validate reconstructed traces against originals.
func MeanAbsPowerDiff(a, b *Recorder, rateHz float64) float64 {
	dur := a.Duration()
	if d := b.Duration(); d < dur {
		dur = d
	}
	n := int(dur * rateHz)
	if n == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		t := float64(i) / rateHz
		d := a.PowerAt(t) - b.PowerAt(t)
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / float64(n)
}

func TestCSVRoundTripPreservesEnergy(t *testing.T) {
	orig := New()
	orig.Record(PhaseDeepSleep, 0.5, 45e-6)
	orig.Record(PhaseSampling, 0.2, 2e-3)
	orig.Record(PhaseInference, 0.1, 15e-3)
	var buf bytes.Buffer
	const rate = 1000.0
	if err := orig.WriteCSV(&buf, rate); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Total energy must survive within a sample period's worth of error.
	if d := math.Abs(back.TotalEnergy() - orig.TotalEnergy()); d > orig.TotalEnergy()*0.01 {
		t.Fatalf("energy drifted by %v J through CSV", d)
	}
	// A couple of samples right on segment boundaries may land on either
	// side after the float round-trip; everything else must match.
	if diff := MeanAbsPowerDiff(orig, back, rate); diff > 5e-5 {
		t.Fatalf("mean power diff %v W", diff)
	}
}

func TestWriteCSVHeaderAndShape(t *testing.T) {
	r := New()
	r.Record(PhaseSampling, 0.01, 1e-3)
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf, 1000); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "t_s,power_w" {
		t.Fatalf("header %q", lines[0])
	}
	if len(lines) != 11 { // header + 10 samples
		t.Fatalf("%d lines", len(lines))
	}
}

func TestWriteCSVRejectsBadRate(t *testing.T) {
	r := New()
	r.Record(PhaseSampling, 0.01, 1e-3)
	if err := r.WriteCSV(&bytes.Buffer{}, 0); err == nil {
		t.Fatal("zero rate must error")
	}
}

func TestReadCSVRejectsMalformed(t *testing.T) {
	cases := []string{
		"",
		"t_s,power_w\n",
		"wrong,header\n0,1\n1,2\n",
		"t_s,power_w\n0,abc\n0.1,1\n",
		"t_s,power_w\nabc,1\n0.1,1\n",
		"t_s,power_w\n0.2,1\n0.1,1\n", // non-increasing time
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d should fail: %q", i, c)
		}
	}
}

func TestMeanAbsPowerDiffIdentical(t *testing.T) {
	a := New()
	a.Record(PhaseSampling, 1, 2e-3)
	if d := MeanAbsPowerDiff(a, a, 100); d != 0 {
		t.Fatalf("self-diff %v", d)
	}
}

// FuzzReadCSV asserts the trace parser never panics on malformed input.
func FuzzReadCSV(f *testing.F) {
	r := New()
	r.Record(PhaseSampling, 0.01, 1e-3)
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf, 1000); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("t_s,power_w\n0,1\n")
	f.Add("t_s,power_w\n0,1\n0,2\n")
	f.Add("")
	f.Add("garbage")
	f.Add("t_s,power_w\nNaN,Inf\n1,1\n")

	f.Fuzz(func(t *testing.T, data string) {
		rec, err := ReadCSV(strings.NewReader(data))
		if err != nil {
			return
		}
		// A successfully parsed trace must be internally consistent.
		if rec.Duration() < 0 {
			t.Fatal("negative duration from parsed trace")
		}
		_ = rec.TotalEnergy()
	})
}
