package compute

import (
	"math"
	"math/rand"
	"testing"
)

// refInt8MatMul is the obvious triple loop the blocked kernel must match
// exactly (integer arithmetic: any disagreement is a bug, not tolerance).
func refInt8MatMul(dst []int32, a, b []int8, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc int32
			for kk := 0; kk < k; kk++ {
				acc += int32(a[i*k+kk]) * int32(b[kk*n+j])
			}
			dst[i*n+j] = acc
		}
	}
}

func randInt8(rng *rand.Rand, n int) []int8 {
	out := make([]int8, n)
	for i := range out {
		out[i] = int8(rng.Intn(255) - 127)
	}
	return out
}

func TestQuantizeMultiplier(t *testing.T) {
	// Exact powers of two decompose with a full-scale mantissa.
	if mult, shift := QuantizeMultiplier(1.0); mult != 1<<30 || shift != 30 {
		t.Fatalf("QuantizeMultiplier(1) = (%d, %d), want (2^30, 30)", mult, shift)
	}
	if mult, shift := QuantizeMultiplier(0.5); mult != 1<<30 || shift != 31 {
		t.Fatalf("QuantizeMultiplier(0.5) = (%d, %d), want (2^30, 31)", mult, shift)
	}
	if mult, shift := QuantizeMultiplier(2.0); mult != 1<<30 || shift != 29 {
		t.Fatalf("QuantizeMultiplier(2) = (%d, %d), want (2^30, 29)", mult, shift)
	}
	// Degenerate multipliers must annihilate, not wrap.
	for _, m := range []float64{0, -1, math.NaN(), math.Inf(1), 1e-40} {
		if mult, shift := QuantizeMultiplier(m); mult != 0 || shift != 0 {
			t.Fatalf("QuantizeMultiplier(%v) = (%d, %d), want (0, 0)", m, mult, shift)
		}
	}
	// Reconstruction accuracy: mult·2^-shift within 2^-30 relative of m.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		m := math.Exp(rng.Float64()*20 - 10) // ~[4.5e-5, 2.2e4]
		mult, shift := QuantizeMultiplier(m)
		got := float64(mult) * math.Ldexp(1, -shift)
		if rel := math.Abs(got-m) / m; rel > 1.0/(1<<30) {
			t.Fatalf("QuantizeMultiplier(%g): reconstructed %g, rel err %g", m, got, rel)
		}
	}
	// Signed variant carries the sign on the mantissa.
	mult, shift := QuantizeMultiplierSigned(-1.0)
	if mult != -(1<<30) || shift != 30 {
		t.Fatalf("QuantizeMultiplierSigned(-1) = (%d, %d), want (-2^30, 30)", mult, shift)
	}
}

func TestRequantizeRNETies(t *testing.T) {
	// mult/shift encoding 0.5 exactly: acc·0.5 exercises the tie cases.
	mult, shift := QuantizeMultiplier(0.5)
	cases := []struct {
		acc  int32
		want int8
	}{
		{0, 0},
		{1, 0},   // 0.5 ties to even 0
		{-1, 0},  // -0.5 ties to even 0
		{3, 2},   // 1.5 ties to even 2
		{-3, -2}, // -1.5 ties to even -2
		{5, 2},   // 2.5 ties to even 2
		{-5, -2}, // -2.5 ties to even -2
		{7, 4},   // 3.5 ties to even 4
		{2, 1},
		{-2, -1},
	}
	for _, c := range cases {
		if got := RequantizeRNE(c.acc, mult, shift, -127, 127); got != c.want {
			t.Fatalf("RequantizeRNE(%d × 0.5) = %d, want %d", c.acc, got, c.want)
		}
	}
}

func TestRequantizeRNESaturation(t *testing.T) {
	mult, shift := QuantizeMultiplier(1.0)
	if got := RequantizeRNE(1000, mult, shift, -127, 127); got != 127 {
		t.Fatalf("positive saturation: got %d, want 127", got)
	}
	if got := RequantizeRNE(-1000, mult, shift, -127, 127); got != -127 {
		t.Fatalf("negative saturation: got %d, want -127", got)
	}
	// Fused ReLU: lower bound 0.
	if got := RequantizeRNE(-5, mult, shift, 0, 127); got != 0 {
		t.Fatalf("fused ReLU: got %d, want 0", got)
	}
	// Large multipliers (negative shift) saturate instead of wrapping.
	mult, shift = QuantizeMultiplier(1 << 20)
	if got := RequantizeRNE(math.MaxInt32, mult, shift, -127, 127); got != 127 {
		t.Fatalf("big-multiplier saturation: got %d, want 127", got)
	}
	if got := RequantizeRNE(math.MinInt32, mult, shift, -127, 127); got != -127 {
		t.Fatalf("big-multiplier negative saturation: got %d, want -127", got)
	}
	// Affine form: bias applies after the scale, before the clamp.
	mult, shift = QuantizeMultiplier(1.0)
	if got := RequantizeAffineRNE(10, mult, shift, 5, -127, 127); got != 15 {
		t.Fatalf("affine: got %d, want 15", got)
	}
	if got := RequantizeAffineRNE(0, 0, 0, 42, -127, 127); got != 42 {
		t.Fatalf("dead-channel affine (mult 0): got %d, want 42", got)
	}
}

func TestInt8GEMMMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {3, 5, 7}, {8, 64, 33}, {17, 70, 600}, {2, 130, 9},
	}
	var g Int8GEMM
	ctx := NewContext(NewParallel(4), nil)
	for _, s := range shapes {
		a := randInt8(rng, s.m*s.k)
		b := randInt8(rng, s.k*s.n)
		got := make([]int32, s.m*s.n)
		want := make([]int32, s.m*s.n)
		g.MatMul(ctx, got, a, b, s.m, s.k, s.n)
		refInt8MatMul(want, a, b, s.m, s.k, s.n)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shape %+v: dst[%d] = %d, want %d", s, i, got[i], want[i])
			}
		}
	}
}

func TestInt8GEMMDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, k, n := 23, 95, 311
	a := randInt8(rng, m*k)
	b := randInt8(rng, k*n)

	run := func(backend Backend) []int32 {
		ctx := NewContext(backend, nil)
		var g Int8GEMM
		dst := make([]int32, m*n)
		g.MatMul(ctx, dst, a, b, m, k, n)
		return dst
	}
	serial := run(Serial{})
	for _, workers := range []int{2, 4, 7} {
		par := run(NewParallel(workers))
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("workers=%d: dst[%d] = %d, serial %d", workers, i, par[i], serial[i])
			}
		}
	}
}

func TestInt8DenseFusedEpilogue(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n, in, out := 5, 37, 11
	x := randInt8(rng, n*in)
	w := randInt8(rng, out*in)
	bias := make([]int32, out)
	mult := make([]int32, out)
	shift := make([]int32, out)
	scales := make([]float64, out)
	for j := range bias {
		bias[j] = int32(rng.Intn(2001) - 1000)
		scales[j] = math.Exp(rng.Float64()*4 - 6) // small positive scales
		m, s := QuantizeMultiplier(scales[j])
		mult[j], shift[j] = m, int32(s)
	}

	var d Int8Dense
	dst := make([]int8, n*out)
	d.Run(NewContextFor(1, nil), dst, x, w, bias, mult, shift, n, in, out, 0, 127)

	for i := 0; i < n; i++ {
		for j := 0; j < out; j++ {
			var acc int32
			for kk := 0; kk < in; kk++ {
				acc += int32(x[i*in+kk]) * int32(w[j*in+kk])
			}
			acc += bias[j]
			want := RequantizeRNE(acc, mult[j], int(shift[j]), 0, 127)
			if got := dst[i*out+j]; got != want {
				t.Fatalf("dst[%d][%d] = %d, want %d", i, j, got, want)
			}
		}
	}
}

func TestInt8Conv2DMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n, inC, h, wd := 3, 2, 7, 9
	outC, k, stride, pad := 4, 3, 2, 1
	oh := (h+2*pad-k)/stride + 1
	ow := (wd+2*pad-k)/stride + 1

	x := randInt8(rng, n*inC*h*wd)
	w := randInt8(rng, outC*inC*k*k)
	bias := make([]int32, outC)
	for j := range bias {
		bias[j] = int32(rng.Intn(201) - 100)
	}
	mult, shift := QuantizeMultiplier(0.03)
	mults := []int32{mult}
	shifts := []int32{int32(shift)}

	var conv Int8Conv2D
	rows := inC * k * k
	width := n * oh * ow
	cols := make([]int8, rows*width)
	acc := make([]int32, outC*width)
	dst := make([]int8, n*outC*oh*ow)
	ctx := NewContext(NewParallel(3), nil)
	conv.Run(ctx, dst, x, w, bias, mults, shifts, cols, acc,
		n, inC, h, wd, outC, k, stride, pad, -127, 127)

	for i := 0; i < n; i++ {
		for oc := 0; oc < outC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					a := bias[oc]
					for ic := 0; ic < inC; ic++ {
						for ky := 0; ky < k; ky++ {
							iy := oy*stride + ky - pad
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < k; kx++ {
								ix := ox*stride + kx - pad
								if ix < 0 || ix >= wd {
									continue
								}
								a += int32(w[((oc*inC+ic)*k+ky)*k+kx]) *
									int32(x[((i*inC+ic)*h+iy)*wd+ix])
							}
						}
					}
					want := RequantizeRNE(a, mult, shift, -127, 127)
					got := dst[((i*outC+oc)*oh+oy)*ow+ox]
					if got != want {
						t.Fatalf("sample %d ch %d (%d,%d): got %d, want %d", i, oc, oy, ox, got, want)
					}
				}
			}
		}
	}
}

func TestInt8DWConv2DMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n, ch, h, wd := 2, 3, 6, 8
	k, stride, pad := 3, 1, 1
	oh := (h+2*pad-k)/stride + 1
	ow := (wd+2*pad-k)/stride + 1

	x := randInt8(rng, n*ch*h*wd)
	w := randInt8(rng, ch*k*k)
	bias := make([]int32, ch)
	mults := make([]int32, ch)
	shifts := make([]int32, ch)
	for c := range bias {
		bias[c] = int32(rng.Intn(101) - 50)
		m, s := QuantizeMultiplier(0.01 + 0.02*float64(c))
		mults[c], shifts[c] = m, int32(s)
	}

	var dw Int8DWConv2D
	dst := make([]int8, n*ch*oh*ow)
	dw.Run(NewContextFor(1, nil), dst, x, w, bias, mults, shifts, n, ch, h, wd, k, stride, pad, 0, 127)

	for i := 0; i < n; i++ {
		for c := 0; c < ch; c++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					a := bias[c]
					for ky := 0; ky < k; ky++ {
						iy := oy*stride + ky - pad
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < k; kx++ {
							ix := ox*stride + kx - pad
							if ix < 0 || ix >= wd {
								continue
							}
							a += int32(w[(c*k+ky)*k+kx]) * int32(x[((i*ch+c)*h+iy)*wd+ix])
						}
					}
					want := RequantizeRNE(a, mults[c], int(shifts[c]), 0, 127)
					got := dst[((i*ch+c)*oh+oy)*ow+ox]
					if got != want {
						t.Fatalf("sample %d ch %d (%d,%d): got %d, want %d", i, c, oy, ox, got, want)
					}
				}
			}
		}
	}
}

func TestInt8Quantize(t *testing.T) {
	var q Int8Quantize
	src := []float64{0, 0.05, -0.05, 0.025, 1e9, -1e9, 0.1}
	dst := make([]int8, len(src))
	q.Run(NewContextFor(1, nil), dst, src, 0.05, 127)
	want := []int8{0, 1, -1, 0 /* 0.5 ties to even */, 127, -127, 2}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("quantize[%d] = %d, want %d", i, dst[i], want[i])
		}
	}
	// Zero scale maps everything to zero rather than dividing by it.
	q.Run(NewContextFor(1, nil), dst, src, 0, 127)
	for i, v := range dst {
		if v != 0 {
			t.Fatalf("zero-scale quantize[%d] = %d, want 0", i, v)
		}
	}
}
