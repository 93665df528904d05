package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFFTKnownImpulse(t *testing.T) {
	// FFT of an impulse is all ones.
	x := make([]complex128, 8)
	x[0] = 1
	FFT(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFTSineLocatesFrequency(t *testing.T) {
	const n = 64
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Sin(2*math.Pi*4*float64(i)/n), 0)
	}
	FFT(x)
	// Energy concentrated at bins 4 and 60.
	mag := make([]float64, n)
	for i, v := range x {
		mag[i] = cmplx.Abs(v)
	}
	for i, m := range mag {
		if i == 4 || i == n-4 {
			if m < n/4 {
				t.Fatalf("expected peak at bin %d, got %v", i, m)
			}
		} else if m > 1e-9 {
			t.Fatalf("unexpected energy at bin %d: %v", i, m)
		}
	}
}

func TestFFTPanicsOnNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length 6")
		}
	}()
	FFT(make([]complex128, 6))
}

func TestIFFTRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (2 + rng.Intn(6))
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = x[i]
		}
		FFT(x)
		IFFT(x)
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestParsevalProperty(t *testing.T) {
	// Σ|x|² = (1/N)·Σ|X|².
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (3 + rng.Intn(4))
		x := make([]complex128, n)
		var timeE float64
		for i := range x {
			x[i] = complex(rng.NormFloat64(), 0)
			timeE += real(x[i]) * real(x[i])
		}
		FFT(x)
		var freqE float64
		for _, v := range x {
			freqE += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(timeE-freqE/float64(n)) < 1e-6*(1+timeE)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestHammingWindowShape(t *testing.T) {
	w := HammingWindow(51)
	if math.Abs(w[0]-0.08) > 1e-9 || math.Abs(w[50]-0.08) > 1e-9 {
		t.Fatalf("edges %v %v, want 0.08", w[0], w[50])
	}
	if math.Abs(w[25]-1.0) > 1e-9 {
		t.Fatalf("center %v, want 1", w[25])
	}
	if w1 := HammingWindow(1); w1[0] != 1 {
		t.Fatal("degenerate window must be 1")
	}
}

func TestDCTIIOrthonormal(t *testing.T) {
	// DCT of a constant vector has all energy in coefficient 0.
	x := []float64{1, 1, 1, 1}
	c := DCTII(x, 4)
	if math.Abs(c[0]-2) > 1e-9 { // sqrt(1/4)·4 = 2
		t.Fatalf("c0 = %v, want 2", c[0])
	}
	for i := 1; i < 4; i++ {
		if math.Abs(c[i]) > 1e-9 {
			t.Fatalf("c%d = %v, want 0", i, c[i])
		}
	}
}

func TestDCTIIEnergyPreservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(20)
		x := make([]float64, n)
		var ex float64
		for i := range x {
			x[i] = rng.NormFloat64()
			ex += x[i] * x[i]
		}
		c := DCTII(x, n)
		var ec float64
		for _, v := range c {
			ec += v * v
		}
		return math.Abs(ex-ec) < 1e-9*(1+ex)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestResampleEndpoints(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4}
	y := Resample(x, 9)
	if y[0] != 0 || y[8] != 4 {
		t.Fatalf("endpoints %v %v", y[0], y[8])
	}
	if math.Abs(y[4]-2) > 1e-12 {
		t.Fatalf("midpoint %v, want 2", y[4])
	}
}

func TestResampleIdentity(t *testing.T) {
	x := []float64{3, 1, 4, 1, 5}
	y := Resample(x, 5)
	for i := range x {
		if math.Abs(y[i]-x[i]) > 1e-12 {
			t.Fatalf("identity resample changed data at %d", i)
		}
	}
}

func TestResampleConstantSignalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m := 1+rng.Intn(50), 1+rng.Intn(50)
		v := rng.NormFloat64()
		x := make([]float64, n)
		for i := range x {
			x[i] = v
		}
		for _, o := range Resample(x, m) {
			if math.Abs(o-v) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFrontEndValidate(t *testing.T) {
	good := FrontEndConfig{SampleRate: 16000, StripeMS: 20, DurationMS: 25, NumFeatures: 13}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []FrontEndConfig{
		{SampleRate: 16000, StripeMS: 9, DurationMS: 25, NumFeatures: 13},
		{SampleRate: 16000, StripeMS: 31, DurationMS: 25, NumFeatures: 13},
		{SampleRate: 16000, StripeMS: 20, DurationMS: 17, NumFeatures: 13},
		{SampleRate: 16000, StripeMS: 20, DurationMS: 31, NumFeatures: 13},
		{SampleRate: 16000, StripeMS: 20, DurationMS: 25, NumFeatures: 9},
		{SampleRate: 16000, StripeMS: 20, DurationMS: 25, NumFeatures: 41},
		{SampleRate: 0, StripeMS: 20, DurationMS: 25, NumFeatures: 13},
		// Positive rates too low for one sample per stripe or frame, and
		// one large enough to overflow the frame arithmetic.
		{SampleRate: 2, StripeMS: 20, DurationMS: 25, NumFeatures: 13},
		{SampleRate: 34, StripeMS: 30, DurationMS: 18, NumFeatures: 13},
		{SampleRate: 1 << 62, StripeMS: 20, DurationMS: 25, NumFeatures: 13},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Fatalf("case %d should fail: %+v", i, c)
		}
	}
}

func TestFrontEndFrameGeometry(t *testing.T) {
	c := FrontEndConfig{SampleRate: 16000, StripeMS: 10, DurationMS: 25, NumFeatures: 13}
	if c.FrameLen() != 400 || c.FrameShift() != 160 {
		t.Fatalf("frame geometry %d/%d", c.FrameLen(), c.FrameShift())
	}
	// 1 s of audio: (16000-400)/160 + 1 = 98 frames.
	if nf := c.NumFrames(16000); nf != 98 {
		t.Fatalf("NumFrames = %d, want 98", nf)
	}
	if c.NumFrames(100) != 0 {
		t.Fatal("short signal must produce 0 frames")
	}
}

func TestExtractShapeAndDeterminism(t *testing.T) {
	c := FrontEndConfig{SampleRate: 8000, StripeMS: 20, DurationMS: 25, NumFeatures: 12}
	rng := rand.New(rand.NewSource(7))
	sig := make([]float64, 4000)
	for i := range sig {
		sig[i] = math.Sin(2*math.Pi*440*float64(i)/8000) + 0.1*rng.NormFloat64()
	}
	a := c.Extract(sig)
	b := c.Extract(sig)
	if len(a) != c.NumFrames(len(sig)) {
		t.Fatalf("frames %d, want %d", len(a), c.NumFrames(len(sig)))
	}
	for i := range a {
		if len(a[i]) != 12 {
			t.Fatalf("frame %d has %d features", i, len(a[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("Extract must be deterministic")
			}
			if math.IsNaN(a[i][j]) || math.IsInf(a[i][j], 0) {
				t.Fatalf("non-finite feature at %d,%d", i, j)
			}
		}
	}
}

func TestExtractDistinguishesTones(t *testing.T) {
	// Features of a low tone and a high tone must differ substantially.
	c := FrontEndConfig{SampleRate: 8000, StripeMS: 20, DurationMS: 25, NumFeatures: 13}
	low := make([]float64, 2000)
	high := make([]float64, 2000)
	for i := range low {
		low[i] = math.Sin(2 * math.Pi * 200 * float64(i) / 8000)
		high[i] = math.Sin(2 * math.Pi * 3000 * float64(i) / 8000)
	}
	fa, fb := c.Extract(low), c.Extract(high)
	var dist float64
	for j := range fa[0] {
		d := fa[0][j] - fb[0][j]
		dist += d * d
	}
	if math.Sqrt(dist) < 1 {
		t.Fatalf("tones should be far apart in feature space: %v", math.Sqrt(dist))
	}
}

func TestFrontEndMACsMonotone(t *testing.T) {
	base := FrontEndConfig{SampleRate: 16000, StripeMS: 20, DurationMS: 25, NumFeatures: 13}
	n := 16000
	m0 := base.FrontEndMACs(n)
	// More features → more work.
	more := base
	more.NumFeatures = 40
	if more.FrontEndMACs(n) <= m0 {
		t.Fatal("more features must cost more MACs")
	}
	// Longer stripe (fewer frames) → less work.
	sparse := base
	sparse.StripeMS = 30
	if sparse.FrontEndMACs(n) >= m0 {
		t.Fatal("longer stripe must cost fewer MACs")
	}
}
