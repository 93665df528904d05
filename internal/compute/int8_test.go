package compute

import (
	"fmt"
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
	d.Run(NewContextFor(1, nil), dst, x, PackInt8Dense(w, in, out), bias, mult, shift, n, 0, 127)

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

// refInt8Dense is the naive triple loop the packed dense kernels must match
// bit for bit: a wrapping int32 dot product per output, the bias added in
// int32, then the scalar requantizer (or the float head when deq is set).
func refInt8Dense(x, w []int8, bias, mult, shift []int32, n, in, out int, lo, hi int32) []int8 {
	dst := make([]int8, n*out)
	for i := 0; i < n; i++ {
		for j := 0; j < out; j++ {
			acc := refDot(x[i*in:(i+1)*in], w[j*in:(j+1)*in])
			if bias != nil {
				acc += bias[j]
			}
			ci := requantIndex(mult, j)
			dst[i*out+j] = RequantizeRNE(acc, mult[ci], int(shift[ci]), lo, hi)
		}
	}
	return dst
}

func refDot(x, w []int8) int32 {
	var acc int32
	for k := range x {
		acc += int32(x[k]) * int32(w[k])
	}
	return acc
}

// fillInt8 returns n values: uniform in [lo, hi], or, with zeroEvery > 0,
// every zeroEvery-th value zero (the sparsity a ReLU leaves).
func fillInt8(rng *rand.Rand, n int, lo, hi int32, zeroEvery int) []int8 {
	out := make([]int8, n)
	for i := range out {
		if zeroEvery > 0 && i%zeroEvery == 0 {
			continue
		}
		out[i] = int8(lo + rng.Int31n(hi-lo+1))
	}
	return out
}

// checkInt8Dense runs the packed kernels (requantized and float head) on
// one case and compares both with the naive loop.
func checkInt8Dense(t *testing.T, name string, x, w []int8, bias, mult, shift []int32, n, in, out int, lo, hi int32) {
	t.Helper()
	ctx := NewContextFor(1, nil)
	p := PackInt8Dense(w, in, out)
	var d Int8Dense
	got := make([]int8, n*out)
	d.Run(ctx, got, x, p, bias, mult, shift, n, lo, hi)
	want := refInt8Dense(x, w, bias, mult, shift, n, in, out, lo, hi)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s in=%d out=%d: dst[%d] = %d, want %d", name, in, out, i, got[i], want[i])
		}
	}
	deq := make([]float64, out)
	biasF := make([]float64, out)
	for j := range deq {
		deq[j] = 1 + float64(j)/7
		biasF[j] = float64(j) - 2.5
	}
	logits := make([]float64, n*out)
	d.RunLogits(ctx, logits, x, p, biasF, deq, n)
	for i := 0; i < n; i++ {
		for j := 0; j < out; j++ {
			want := float64(refDot(x[i*in:(i+1)*in], w[j*in:(j+1)*in]))*deq[j] + biasF[j]
			if got := logits[i*out+j]; got != want {
				t.Fatalf("%s in=%d out=%d: logit[%d][%d] = %v, want %v", name, in, out, i, j, got, want)
			}
		}
	}
}

// TestInt8DenseEdges holds the SWAR dense kernels to the naive loop where
// the lane arithmetic is tight: input counts around both flush intervals,
// output counts around the three-lane word and the 36-output tile, weights
// of −128 and 127 everywhere, activations pinned at ±hi for every
// activation width from 4 to 8 bits, sparse non-negative (post-ReLU)
// activations, and per-layer and per-channel multipliers.
func TestInt8DenseEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ins := []int{1, 2, 31, 32, 33, 63, 64, 65, 97, 129}
	outs := []int{1, 2, 3, 4, 5, 35, 36, 37, 73}
	for _, abits := range []int{4, 5, 6, 7, 8} {
		hi := int32(1)<<uint(abits-1) - 1
		// "plus-hi-signed" is +hi but for each row's last input, −hi: the
		// signed path with its lanes growing as fast as they can.
		acts := []struct {
			name   string
			lo, hi int32
			zeros  int
			signed bool
		}{
			{"relu", 0, hi, 3, false},
			{"plus-hi", hi, hi, 0, false},
			{"minus-hi", -hi, -hi, 0, true},
			{"signed", -hi, hi, 0, true},
			{"plus-hi-signed", hi, hi, 0, true},
		}
		for _, in := range ins {
			for _, out := range outs {
				for wi, wfill := range [][2]int32{{-128, 127}, {-128, -128}, {127, 127}} {
					a := acts[(in+out+wi)%len(acts)]
					const n = 2
					x := fillInt8(rng, n*in, a.lo, a.hi, a.zeros)
					if a.name == "plus-hi-signed" {
						for i := 0; i < n; i++ {
							x[i*in+in-1] = int8(-hi)
						}
					}
					w := fillInt8(rng, out*in, wfill[0], wfill[1], 0)
					bias := make([]int32, out)
					for j := range bias {
						bias[j] = rng.Int31n(4001) - 2000
					}
					var mult, shift []int32
					if out%2 == 0 { // per-layer
						m, s := QuantizeMultiplier(math.Exp(rng.Float64()*4 - 9))
						mult, shift = []int32{m}, []int32{int32(s)}
					} else { // per-channel
						mult, shift = make([]int32, out), make([]int32, out)
						for j := range mult {
							m, s := QuantizeMultiplier(math.Exp(rng.Float64()*4 - 9))
							mult[j], shift[j] = m, int32(s)
						}
					}
					lo := -hi
					if !a.signed {
						lo = 0
					}
					name := fmt.Sprintf("abits=%d %s w=%v", abits, a.name, wfill)
					checkInt8Dense(t, name, x, w, bias, mult, shift, n, in, out, lo, hi)
				}
			}
		}
	}
}

// TestInt8DenseWrapsLikeInt32 pins the packed kernels to the scalar
// kernel's wrapping int32 sum on an input long enough to overflow it, on
// both lane paths: 140,000 products of (−128)·(−128) (signed x) sum to
// 2,293,760,000 > 2³¹ − 1, and of 127·(−128) (x ≥ 0) to −2,275,840,000.
func TestInt8DenseWrapsLikeInt32(t *testing.T) {
	const in, out = 140000, 4
	for _, xv := range []int8{-128, 127} {
		x := make([]int8, in)
		w := make([]int8, out*in)
		for i := range x {
			x[i] = xv
		}
		for i := range w {
			w[i] = -128
		}
		ref := int64(xv) * -128 * in
		if int64(refDot(x, w[:in])) == ref {
			t.Fatalf("x=%d: test input no longer overflows int32", xv)
		}
		var acc [tileOut]int32
		p := PackInt8Dense(w, in, out)
		p.dotTile(&acc, x, 0)
		for j := 0; j < out; j++ {
			if want := refDot(x, w[j*in:(j+1)*in]); acc[j] != want {
				t.Fatalf("x=%d output %d: %d, want wrapped %d", xv, j, acc[j], want)
			}
		}
	}
}

// TestInt8GEMMShortK holds the one-pass short-k GEMM (and the four-row
// kernel on either side of it) to the naive loop at every k from 1 to 12,
// odd and even row counts, and extreme fills.
func TestInt8GEMMShortK(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var g Int8GEMM
	ctx := NewContextFor(1, nil)
	for k := 1; k <= 12; k++ {
		for _, m := range []int{1, 2, 3, 6} {
			for _, n := range []int{1, 7, 120} {
				for _, fill := range [][2]int32{{-128, 127}, {-128, -128}, {127, 127}} {
					a := fillInt8(rng, m*k, fill[0], fill[1], 0)
					b := fillInt8(rng, k*n, fill[0], fill[1], 0)
					got := make([]int32, m*n)
					want := make([]int32, m*n)
					g.MatMul(ctx, got, a, b, m, k, n)
					refInt8MatMul(want, a, b, m, k, n)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("m=%d k=%d n=%d fill %v: dst[%d] = %d, want %d", m, k, n, fill, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestInt8ConvMaxPoolMatchesUnfused checks the fused conv→max-pool
// epilogue, run on one sample's scratch, against a whole-batch Run followed
// by a naive max-pool: pool windows of 2 and
// 3 over planes that leave trailing rows and columns, per-layer and
// per-channel multipliers including a dead channel (mult 0) and left
// shifts, with and without a fused ReLU.
func TestInt8ConvMaxPoolMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ctx := NewContextFor(1, nil)
	const n, inC, h, wd, outC, k, stride, pad = 2, 2, 7, 11, 5, 3, 1, 1
	oh := (h+2*pad-k)/stride + 1
	ow := (wd+2*pad-k)/stride + 1
	rows, width := inC*k*k, n*oh*ow
	x := randInt8(rng, n*inC*h*wd)
	w := randInt8(rng, outC*rows)
	bias := make([]int32, outC)
	for j := range bias {
		bias[j] = rng.Int31n(2001) - 1000
	}
	perChannel := func(ms ...float64) ([]int32, []int32) {
		mult, shift := make([]int32, len(ms)), make([]int32, len(ms))
		for j, m := range ms {
			mu, s := QuantizeMultiplier(m)
			mult[j], shift[j] = mu, int32(s)
		}
		return mult, shift
	}
	mults := [][]float64{{0.004}, {0.002, 0, 0.01, 3, 1e-4}, {40}}
	for _, ms := range mults {
		mult, shift := perChannel(ms...)
		for _, lo := range []int32{0, -127} {
			for _, pool := range []int{2, 3} {
				var c Int8Conv2D
				cols := make([]int8, rows*width)
				acc := make([]int32, outC*width)
				full := make([]int8, n*outC*oh*ow)
				c.Run(ctx, full, x, w, bias, mult, shift, cols, acc, n, inC, h, wd, outC, k, stride, pad, lo, 127)
				// The fused run gets one sample's scratch, so it also
				// walks the batch in chunks.
				ph, pw := oh/pool, ow/pool
				got := make([]int8, n*outC*ph*pw)
				c.RunMaxPool(ctx, got, x, w, bias, mult, shift, cols[:rows*oh*ow], acc[:outC*oh*ow], n, inC, h, wd, outC, k, stride, pad, pool, lo, 127)
				for p := 0; p < n*outC; p++ {
					for py := 0; py < ph; py++ {
						for px := 0; px < pw; px++ {
							best := int8(-128)
							for ky := 0; ky < pool; ky++ {
								for kx := 0; kx < pool; kx++ {
									best = max(best, full[(p*oh+py*pool+ky)*ow+px*pool+kx])
								}
							}
							if g := got[(p*ph+py)*pw+px]; g != best {
								t.Fatalf("mult %v lo %d pool %d: plane %d (%d,%d) = %d, want %d", ms, lo, pool, p, py, px, g, best)
							}
						}
					}
				}
			}
		}
	}
}

// FuzzInt8Dense holds the packed dense kernels to the naive loop on
// fuzzer-chosen shapes, weights, activations, biases, multipliers, and
// activation widths.
func FuzzInt8Dense(f *testing.F) {
	f.Add(uint16(65), uint8(37), uint8(8), int64(1), false, []byte{0x80, 0x7f, 0, 1})
	f.Add(uint16(1080), uint8(32), uint8(8), int64(2), true, []byte{0x80})
	f.Add(uint16(33), uint8(5), uint8(4), int64(3), true, []byte{})
	f.Fuzz(func(t *testing.T, in16 uint16, out8, abits8 uint8, seed int64, perChannel bool, raw []byte) {
		in, out := int(in16%1500)+1, int(out8%80)+1
		abits := int(abits8%5) + 4
		hi := int32(1)<<uint(abits-1) - 1
		rng := rand.New(rand.NewSource(seed))
		// raw seeds the leading weights and activations; the rest draw
		// from the seeded stream.
		w := fillInt8(rng, out*in, -128, 127, 0)
		x := fillInt8(rng, in, -hi, hi, 0)
		if seed%2 == 0 {
			for i := range x {
				x[i] = max(x[i], 0)
			}
		}
		for i, b := range raw {
			if i < len(w) {
				w[i] = int8(b)
			}
			if i < len(x) {
				x[i] = int8(min(max(int32(int8(b)), -hi), hi))
			}
		}
		bias := make([]int32, out)
		for j := range bias {
			bias[j] = rng.Int31()
			if rng.Intn(2) == 0 {
				bias[j] = -bias[j]
			}
		}
		nm := 1
		if perChannel {
			nm = out
		}
		mult, shift := make([]int32, nm), make([]int32, nm)
		for j := range mult {
			m, s := QuantizeMultiplier(math.Exp(rng.Float64()*30 - 25))
			mult[j], shift[j] = m, int32(s)
		}
		lo := -hi
		if rng.Intn(2) == 0 {
			lo = 0
		}
		checkInt8Dense(t, "fuzz", x, w, bias, mult, shift, 1, in, out, lo, hi)
	})
}
