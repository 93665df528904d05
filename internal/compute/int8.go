package compute

import "math"

// int8.go holds the quantized inference kernels: int8 GEMM (plain and
// transposed-B), a batched int8 im2col convolution, a direct depthwise
// kernel, and the requantization epilogues that map int32 accumulators back
// to int8 activations. All kernels follow the package's determinism
// contract — work partitions by output rows (or disjoint blocks) over the
// same persistent worker pool as the float kernels — and since every
// accumulation is exact integer arithmetic the results are bit-identical at
// any worker count by construction.
//
// Requantization follows the fixed-point scheme of integer inference
// runtimes: a real-valued multiplier M ∈ (0, 2³¹) is decomposed as
// M = mult·2⁻ˢʰⁱᶠᵗ with mult a 31-bit mantissa, and applied to an int32
// accumulator in int64 as round-to-nearest-even((acc·mult)·2⁻ˢʰⁱᶠᵗ),
// saturating into the activation range (±127 at 8 bits, 0 as the lower
// bound when a ReLU is fused).

// QuantizeMultiplier decomposes a positive real multiplier into a 31-bit
// fixed-point mantissa and a right shift such that m ≈ mult·2⁻ˢʰⁱᶠᵗ, with
// mult ∈ [2³⁰, 2³¹). Negative shifts mean a left shift (multipliers above
// one). Non-positive, NaN, infinite, or vanishingly small multipliers
// return (0, 0), which annihilates every accumulator — the dead-channel
// encoding.
func QuantizeMultiplier(m float64) (mult int32, shift int) {
	if !(m > 0) || math.IsInf(m, 1) {
		return 0, 0
	}
	frac, exp := math.Frexp(m) // m = frac·2^exp, frac ∈ [0.5, 1)
	q := int64(math.RoundToEven(frac * (1 << 31)))
	if q == 1<<31 { // frac rounded up to exactly 1.0
		q >>= 1
		exp++
	}
	shift = 31 - exp
	if shift > 62 {
		// m < ~2⁻³²: every int32 accumulator scales below one LSB.
		return 0, 0
	}
	if shift < -31 {
		// m > ~2⁶²: every nonzero accumulator saturates regardless.
		shift = -31
	}
	return int32(q), shift
}

// QuantizeMultiplierSigned is QuantizeMultiplier extended to negative
// multipliers (a BatchNorm channel with negative gamma): the sign travels
// on the mantissa.
func QuantizeMultiplierSigned(m float64) (mult int32, shift int) {
	if m < 0 {
		mult, shift = QuantizeMultiplier(-m)
		return -mult, shift
	}
	return QuantizeMultiplier(m)
}

// rneShift computes round-to-nearest-even(v·2⁻ˢʰⁱᶠᵗ). Negative shifts shift
// left exactly, with the result clamped to ±2³¹ — far outside any
// activation range, so the clamp is invisible after saturation, while
// keeping the int64 arithmetic overflow-free for any |v| ≤ 2⁶² input.
func rneShift(v int64, shift int) int64 {
	if shift <= 0 {
		s := uint(-shift)
		const lim = int64(1) << 31
		if s > 31 {
			s = 31
		}
		if v > lim>>s {
			return lim
		}
		if v < -(lim >> s) {
			return -lim
		}
		return v << s
	}
	if shift > 62 {
		// |v| ≤ 2⁶² means |v·2⁻ˢʰⁱᶠᵗ| ≤ 0.5: rounds to even zero.
		return 0
	}
	// Additive round-to-nearest-even: adding half−1 plus the floor
	// quotient's parity bit carries into the quotient exactly when the
	// remainder exceeds half, or equals half with an odd quotient — RNE in
	// five branch-free ops (v ≤ 2⁶² keeps the sum overflow-free).
	s := uint(shift)
	half := int64(1)<<(s-1) - 1
	return (v + half + (v>>s)&1) >> s
}

// RequantizeRNE scales a 32-bit accumulator by mult·2⁻ˢʰⁱᶠᵗ with
// round-to-nearest-even and saturates into [lo, hi] — the requantization
// epilogue applied to every int8 layer output. At 8 activation bits the
// bounds are ±127 (symmetric, -128 unused), with lo = 0 when a ReLU is
// fused into the epilogue.
func RequantizeRNE(acc, mult int32, shift int, lo, hi int32) int8 {
	q := rneShift(int64(acc)*int64(mult), shift)
	if q > int64(hi) {
		q = int64(hi)
	}
	if q < int64(lo) {
		q = int64(lo)
	}
	return int8(q)
}

// RequantizeAffineRNE computes clamp(rne(acc·mult·2⁻ˢʰⁱᶠᵗ) + bias, lo, hi):
// the per-channel integer affine of a quantized BatchNorm, whose shift term
// lives in the output scale (so a dead channel — gamma zero — still lands
// exactly on its beta constant).
func RequantizeAffineRNE(acc, mult int32, shift int, bias, lo, hi int32) int8 {
	q := rneShift(int64(acc)*int64(mult), shift) + int64(bias)
	if q > int64(hi) {
		q = int64(hi)
	}
	if q < int64(lo) {
		q = int64(lo)
	}
	return int8(q)
}

// int8MatMulRows computes rows [i0, i1) of dst(int32) = a×b for int8
// a (m,k) and b (k,n), pairing output rows and unrolling over k — the
// scalar throughput levers that let the int8 path beat the float kernel
// without SIMD. (The float kernel's cache blocking is unnecessary here:
// b rows are bytes, 8× denser than float64.)
func int8MatMulRows(dst []int32, a, b []int8, k, n, i0, i1 int) {
	i := i0
	for ; i+1 < i1; i += 2 {
		if k > 4 && k <= shortK {
			int8MatMulRowPairShort(dst[i*n:(i+2)*n], a[i*k:(i+2)*k], b, k, n)
		} else {
			int8MatMulRowPair(dst[i*n:(i+2)*n], a[i*k:(i+2)*k], b, k, n)
		}
	}
	if i < i1 {
		int8MatMulRow(dst[i*n:(i+1)*n], a[i*k:(i+1)*k], b, k, n)
	}
}

// shortK is the largest inner dimension int8MatMulRowPairShort takes: the
// nine taps of a 3×3 kernel over one input channel.
const shortK = 9

// int8MatMulRowPairShort is int8MatMulRowPair for 4 < k ≤ shortK, where
// the four-row passes would store each destination element two or three
// times: one pass over all k rows of b per output pair writes it once. Rows
// past k alias b's first row behind a zero coefficient. (At k ≤ 4 the
// four-row kernel already makes a single pass with fewer multiplies.)
//
// Both rows share each multiply: coefficient kk is the int64
// c0 + c1·2³², so Σ v·(c0 + c1·2³²) = A + B·2³² with A, B the two rows'
// dot products. |A|, |B| ≤ 9·128² < 2³¹, so int32(S) is A exactly and
// (S − A)/2³² is B — nine 64-bit multiplies instead of eighteen.
func int8MatMulRowPairShort(dst []int32, a, b []int8, k, n int) {
	var c [shortK]int64
	var rows [shortK][]int8
	for kk := range rows {
		rows[kk] = b[:n]
		if kk < k {
			c[kk] = int64(a[kk]) + int64(a[k+kk])<<32
			rows[kk] = b[kk*n : kk*n+n]
		}
	}
	b0 := rows[0]
	b1, b2, b3 := rows[1][:len(b0)], rows[2][:len(b0)], rows[3][:len(b0)]
	b4, b5, b6 := rows[4][:len(b0)], rows[5][:len(b0)], rows[6][:len(b0)]
	b7, b8 := rows[7][:len(b0)], rows[8][:len(b0)]
	d0, d1 := dst[:len(b0)], dst[n:n+len(b0)]
	for j := range b0 {
		s := int64(b0[j])*c[0] + int64(b1[j])*c[1] + int64(b2[j])*c[2] +
			int64(b3[j])*c[3] + int64(b4[j])*c[4] + int64(b5[j])*c[5] +
			int64(b6[j])*c[6] + int64(b7[j])*c[7] + int64(b8[j])*c[8]
		lo := int32(s)
		d0[j] = lo
		d1[j] = int32((s - int64(lo)) >> 32)
	}
}

// int8MatMulRowPair accumulates two adjacent dst rows in one sweep over b,
// so every int8 b element loaded and sign-extended feeds four MACs instead
// of two. Integer addition is associative, so the pairing (and any worker
// partition cutting through a pair) cannot perturb the result — the
// bit-determinism guarantee costs nothing here, unlike the float kernels.
func int8MatMulRowPair(dst []int32, a, b []int8, k, n int) {
	d0, d1 := dst[:n], dst[n:2*n]
	r0, r1 := a[:k], a[k:2*k]
	for j := range d0 {
		d0[j] = 0
	}
	for j := range d1 {
		d1[j] = 0
	}
	kk := 0
	for ; kk+3 < k; kk += 4 {
		a00, a01, a02, a03 := int32(r0[kk]), int32(r0[kk+1]), int32(r0[kk+2]), int32(r0[kk+3])
		a10, a11, a12, a13 := int32(r1[kk]), int32(r1[kk+1]), int32(r1[kk+2]), int32(r1[kk+3])
		if a00|a01|a02|a03|a10|a11|a12|a13 == 0 {
			continue
		}
		b0 := b[kk*n : kk*n+n]
		b1 := b[(kk+1)*n : (kk+1)*n+n][:len(b0)]
		b2 := b[(kk+2)*n : (kk+2)*n+n][:len(b0)]
		b3 := b[(kk+3)*n : (kk+3)*n+n][:len(b0)]
		e0, e1 := d0[:len(b0)], d1[:len(b0)]
		for j := range b0 {
			bv0, bv1 := int32(b0[j]), int32(b1[j])
			bv2, bv3 := int32(b2[j]), int32(b3[j])
			e0[j] += a00*bv0 + a01*bv1 + a02*bv2 + a03*bv3
			e1[j] += a10*bv0 + a11*bv1 + a12*bv2 + a13*bv3
		}
	}
	for ; kk+1 < k; kk += 2 {
		a00, a01 := int32(r0[kk]), int32(r0[kk+1])
		a10, a11 := int32(r1[kk]), int32(r1[kk+1])
		if a00|a01|a10|a11 == 0 {
			continue
		}
		b0 := b[kk*n : kk*n+n]
		b1 := b[(kk+1)*n : (kk+1)*n+n][:len(b0)]
		e0, e1 := d0[:len(b0)], d1[:len(b0)]
		for j := range b0 {
			bv0, bv1 := int32(b0[j]), int32(b1[j])
			e0[j] += a00*bv0 + a01*bv1
			e1[j] += a10*bv0 + a11*bv1
		}
	}
	if kk < k {
		a0, a1 := int32(r0[kk]), int32(r1[kk])
		if a0|a1 != 0 {
			bseg := b[kk*n : kk*n+n]
			e0, e1 := d0[:len(bseg)], d1[:len(bseg)]
			for j := range bseg {
				bv := int32(bseg[j])
				e0[j] += a0 * bv
				e1[j] += a1 * bv
			}
		}
	}
}

// int8MatMulRow is the odd-row remainder of int8MatMulRows: four k-rows of
// b per pass so each load+store of the int32 destination amortizes four
// MACs.
func int8MatMulRow(drow []int32, arow, b []int8, k, n int) {
	for j := range drow {
		drow[j] = 0
	}
	kk := 0
	for ; kk+3 < k; kk += 4 {
		av0 := int32(arow[kk])
		av1 := int32(arow[kk+1])
		av2 := int32(arow[kk+2])
		av3 := int32(arow[kk+3])
		if av0|av1|av2|av3 == 0 {
			continue
		}
		b0 := b[kk*n : kk*n+n]
		b1 := b[(kk+1)*n : (kk+1)*n+n]
		b2 := b[(kk+2)*n : (kk+2)*n+n]
		b3 := b[(kk+3)*n : (kk+3)*n+n]
		for j := range drow {
			drow[j] += av0*int32(b0[j]) + av1*int32(b1[j]) +
				av2*int32(b2[j]) + av3*int32(b3[j])
		}
	}
	for ; kk < k; kk++ {
		av := int32(arow[kk])
		if av == 0 {
			continue
		}
		bseg := b[kk*n : kk*n+n]
		for j := range drow {
			drow[j] += av * int32(bseg[j])
		}
	}
}

// requantRNERange applies one channel's requantization to a run of
// accumulators: dst[j] = clamp(rne((src[j]+bias)·mult·2⁻ˢʰⁱᶠᵗ)). The
// fixed-point constants hoist out of the element loop; degenerate
// parameters (dead channel, left shift) fall back to the scalar epilogue.
func requantRNERange(dst []int8, src []int32, bias, mult int32, shift int, lo, hi int32) {
	if mult == 0 || shift <= 0 || shift > 62 {
		for j, v := range src {
			dst[j] = RequantizeRNE(v+bias, mult, shift, lo, hi)
		}
		return
	}
	m64, lo64, hi64 := int64(mult), int64(lo), int64(hi)
	s := uint(shift)
	half := int64(1)<<(s-1) - 1
	dst = dst[:len(src)]
	for j, v := range src {
		// Additive branch-free RNE (see rneShift): no data-dependent
		// branch for ~50%-likely ties/round-ups to mispredict.
		t := int64(v+bias) * m64
		q := (t + half + (t>>s)&1) >> s
		dst[j] = int8(min(max(q, lo64), hi64))
	}
}

// requantMaxPool is requantRNERange fused with a p×p max-pool: src is one
// (oh, ow) accumulator plane, dst its (oh/p, ow/p) pooled int8 plane, and
// only each window's largest src[j]+bias is requantized. That is exact
// when mult ≥ 0: the requantizer (multiply, round, saturate) is then
// monotone non-decreasing, so the max of the requantized window is the
// requantized max — and a quarter of the values (at p = 2) get requantized.
// The 2×2 window with the hoisted fixed-point constants is the fast path;
// other windows and degenerate parameters take the scalar epilogue.
func requantMaxPool(dst []int8, src []int32, ow, p int, bias, mult int32, shift int, lo, hi int32) {
	pw := ow / p
	ph := len(src) / ow / p
	if p != 2 || mult == 0 || shift <= 0 || shift > 62 {
		for py := 0; py < ph; py++ {
			for px := 0; px < pw; px++ {
				best := src[py*p*ow+px*p] + bias
				for ky := 0; ky < p; ky++ {
					for _, v := range src[(py*p+ky)*ow+px*p : (py*p+ky)*ow+px*p+p] {
						best = max(best, v+bias)
					}
				}
				dst[py*pw+px] = RequantizeRNE(best, mult, shift, lo, hi)
			}
		}
		return
	}
	m64, lo64, hi64 := int64(mult), int64(lo), int64(hi)
	s := uint(shift)
	half := int64(1)<<(s-1) - 1
	for py := 0; py < ph; py++ {
		r0 := src[2*py*ow : 2*py*ow+2*pw]
		r1 := src[(2*py+1)*ow : (2*py+1)*ow+2*pw]
		r1 = r1[:len(r0)]
		drow := dst[py*pw : py*pw+pw]
		for j := 0; j+1 < len(r0); j += 2 {
			best := max(r0[j]+bias, r0[j+1]+bias, r1[j]+bias, r1[j+1]+bias)
			t := int64(best) * m64
			q := (t + half + (t>>s)&1) >> s
			drow[j>>1] = int8(min(max(q, lo64), hi64))
		}
	}
}

// requantIndex returns the channel index into a requant parameter slice:
// per-channel slices index by channel, a length-1 slice broadcasts
// (per-layer requantization).
func requantIndex(params []int32, ch int) int {
	if len(params) > 1 {
		return ch
	}
	return 0
}

// Int8GEMM dispatches the int8 matrix kernel over a Context. Operands bind
// through struct fields and the range closure is cached, so a steady-state
// call performs zero heap allocations (see the nn layer dispatch idiom).
// One Int8GEMM must not be shared by concurrent callers.
type Int8GEMM struct {
	dst  []int32
	a, b []int8
	k, n int
	fn   func(i0, i1 int)
}

// MatMul computes dst(int32) = a×b for int8 a (m,k) and b (k,n),
// partitioned by output rows.
func (g *Int8GEMM) MatMul(ctx *Context, dst []int32, a, b []int8, m, k, n int) {
	g.dst, g.a, g.b, g.k, g.n = dst, a, b, k, n
	if g.fn == nil {
		g.fn = g.rowRange
	}
	ctx.ParallelFor(m, k*n, g.fn)
}

func (g *Int8GEMM) rowRange(i0, i1 int) {
	int8MatMulRows(g.dst, g.a, g.b, g.k, g.n, i0, i1)
}

// The dense kernels multiply one activation by a uint64 word that holds
// three weights, each biased by +128 into [0, 255] and parked in its own
// 21-bit lane, so one integer multiply performs three MACs (SWAR: SIMD
// within a register). A lane is only exact while its running sum stays
// below 2²¹, so the lanes flush into int64 totals at a fixed input count:
//
//   - x ∈ [0, 127] (every activation behind a ReLU): x stays unbiased, a
//     lane grows by at most 127·255 per input, and 64·127·255 = 2,072,640
//     < 2²¹. Zero activations are skipped outright.
//   - signed x: x is biased by +128 too, a lane grows by at most 255² per
//     input, and 32·255² = 2,080,800 < 2²¹.
//
// The biases come back out exactly: Σ x·(w+128) = Σ x·w + 128·Σx, and
// Σ (x+128)(w+128) = Σ x·w + 128·Σx + 128·Σw + n·128². The totals are exact
// integers for any int8 weights (−128 included), so their low 32 bits equal
// the wrapping int32 sum of the scalar dot product.
const (
	laneBits  = 21
	laneMask  = 1<<laneBits - 1
	tileWords = 12 // words per output tile: 36 outputs, totals sized on the stack
	tileOut   = 3 * tileWords
	flushPos  = 64 // inputs per flush for x ∈ [0, 127]
	flushBias = 32 // inputs per flush for biased x ∈ [0, 255]
	packBlock = 64 // inputs per packing block; its lane sums stay below 64·255
)

// Int8DensePack is a dense layer's (out, in) int8 weight matrix in the
// SWAR layout: outputs split into tiles of 36, and within a tile, input i
// owns ⌈cnt/3⌉ consecutive words whose lane l of word g holds
// w[t·36+3g+l][i]+128 (an absent output's lane holds 0). Input-major order
// makes a sweep over x read the weights sequentially. A pack is immutable
// once built, and shared by every executor of its model.
type Int8DensePack struct {
	in, out int
	words   []uint64
	wsum    []int64 // Σᵢ w[j][i] per output, for the biased correction
}

// PackInt8Dense lays out w (out, in) for the SWAR dense kernels. It walks
// blocks of packBlock inputs so the words a block writes (strided by the
// tile width) stay in L1 while each word column reads its three weight
// rows sequentially, and it sums the rows for the biased correction by
// adding up the packed words themselves: one add per word.
func PackInt8Dense(w []int8, in, out int) *Int8DensePack {
	words := (out + 2) / 3
	p := &Int8DensePack{in: in, out: out, words: make([]uint64, in*words)}
	w = w[:in*out]
	// A tile's absent outputs read a row of −128, which biases to 0.
	var absent []int8
	if out%3 != 0 {
		absent = make([]int8, in)
		for i := range absent {
			absent[i] = -128
		}
	}
	row := func(j int) []int8 {
		if j >= out {
			return absent
		}
		return w[j*in : (j+1)*in]
	}
	wsum := make([]int64, 3*words) // lane sums of w+128, absent lanes included
	for j0 := 0; j0 < out; j0 += tileOut {
		nw := (min(tileOut, out-j0) + 2) / 3
		block := p.words[in*j0/3 : in*j0/3+in*nw]
		for i0 := 0; i0 < in; i0 += packBlock {
			i1 := min(i0+packBlock, in)
			for g := 0; g < nw; g++ {
				j := j0 + 3*g
				r0, r1, r2 := row(j)[i0:i1], row(j + 1)[i0:i1], row(j + 2)[i0:i1]
				r1, r2 = r1[:len(r0)], r2[:len(r0)]
				var sum uint64
				k := i0*nw + g
				for i, v := range r0 {
					// uint8(v)^0x80 is v+128.
					word := uint64(uint8(v)^0x80) |
						uint64(uint8(r1[i])^0x80)<<laneBits |
						uint64(uint8(r2[i])^0x80)<<(2*laneBits)
					block[k] = word
					sum += word
					k += nw
				}
				wsum[j] += int64(sum & laneMask)
				wsum[j+1] += int64(sum >> laneBits & laneMask)
				wsum[j+2] += int64(sum >> (2 * laneBits))
			}
		}
	}
	for j := range wsum {
		wsum[j] -= 128 * int64(in)
	}
	p.wsum = wsum[:out]
	return p
}

// dotTile sets acc[:cnt] to the dot products of x against outputs
// [j0, j0+cnt) of the packed layer (j0 a multiple of tileOut), wrapped to
// int32 exactly as a scalar int32 accumulation would be, and returns cnt.
func (p *Int8DensePack) dotTile(acc *[tileOut]int32, x []int8, j0 int) int {
	in := p.in
	x = x[:in]
	cnt := min(tileOut, p.out-j0)
	nw := (cnt + 2) / 3
	block := p.words[in*j0/3 : in*j0/3+in*nw]
	var lanes [tileWords]uint64
	var tot [tileOut]int64
	ls := lanes[:nw]
	var neg int8
	var xsum int64
	for _, v := range x {
		neg |= v
		xsum += int64(v)
	}
	signed := neg < 0
	flush, bias := flushPos, uint64(0)
	if signed {
		flush, bias = flushBias, 128
	}
	for i0 := 0; i0 < in; i0 += flush {
		i1 := min(i0+flush, in)
		for i := i0; i < i1; i++ {
			xv := uint64(int64(x[i])) + bias
			if xv == 0 {
				continue
			}
			row := block[i*nw : i*nw+nw]
			row = row[:len(ls)]
			for g := range ls {
				ls[g] += xv * row[g]
			}
		}
		for g, l := range ls {
			tot[3*g] += int64(l & laneMask)
			tot[3*g+1] += int64(l >> laneBits & laneMask)
			tot[3*g+2] += int64(l >> (2 * laneBits))
			ls[g] = 0
		}
	}
	corr := 128 * xsum
	for jj := 0; jj < cnt; jj++ {
		t := tot[jj] - corr
		if signed {
			t -= 128*p.wsum[j0+jj] + int64(in)*128*128
		}
		acc[jj] = int32(t)
	}
	return cnt
}

// Int8Dense is the quantized fully-connected kernel over a packed weight
// matrix: one pass computes dst(int8) = requant(x·wᵀ + bias) row by row
// with the bias/requant/ReLU epilogue fused, or float logits for the
// classifier head. It caches its dispatch closures and must not be shared
// across goroutines.
type Int8Dense struct {
	x, dst            []int8
	p                 *Int8DensePack
	bias, mult, shift []int32
	dstF              []float64
	deq, biasF        []float64
	lo, hi            int32
	fn, logitsFn      func(i0, i1 int)
}

// Run computes the int8 dense layer for x (n, in) against the packed
// weights: dst[i][j] = requant(Σₖ x[i][k]·w[j][k] + bias[j]). mult/shift
// hold one entry per output unit or a single broadcast entry; [lo, hi] is
// the saturation range (lo = 0 fuses a ReLU). Rows partition by sample.
func (d *Int8Dense) Run(ctx *Context, dst, x []int8, p *Int8DensePack, bias, mult, shift []int32, n int, lo, hi int32) {
	d.dst, d.x, d.p = dst, x, p
	d.bias, d.mult, d.shift = bias, mult, shift
	d.lo, d.hi = lo, hi
	if d.fn == nil {
		d.fn = d.rowRange
	}
	ctx.ParallelFor(n, 2*p.in*p.out, d.fn)
}

func (d *Int8Dense) rowRange(i0, i1 int) {
	in, out := d.p.in, d.p.out
	var acc [tileOut]int32
	for i := i0; i < i1; i++ {
		xrow := d.x[i*in : (i+1)*in]
		drow := d.dst[i*out : (i+1)*out]
		for j0 := 0; j0 < out; j0 += tileOut {
			cnt := d.p.dotTile(&acc, xrow, j0)
			for jj, a := range acc[:cnt] {
				j := j0 + jj
				if d.bias != nil {
					a += d.bias[j]
				}
				ci := requantIndex(d.mult, j)
				drow[j] = RequantizeRNE(a, d.mult[ci], int(d.shift[ci]), d.lo, d.hi)
			}
		}
	}
}

// RunLogits computes the float classifier head: dst[i][j] =
// acc[i][j]·deq[j] + biasF[j], where deq[j] is the per-class dequantization
// scale (input scale × per-row weight scale). Keeping the head in float
// costs one multiply per class and spares the logits a final quantization.
func (d *Int8Dense) RunLogits(ctx *Context, dst []float64, x []int8, p *Int8DensePack, biasF, deq []float64, n int) {
	d.dstF, d.x, d.p = dst, x, p
	d.biasF, d.deq = biasF, deq
	if d.logitsFn == nil {
		d.logitsFn = d.logitsRange
	}
	ctx.ParallelFor(n, 2*p.in*p.out, d.logitsFn)
}

func (d *Int8Dense) logitsRange(i0, i1 int) {
	in, out := d.p.in, d.p.out
	var acc [tileOut]int32
	for i := i0; i < i1; i++ {
		xrow := d.x[i*in : (i+1)*in]
		drow := d.dstF[i*out : (i+1)*out]
		for j0 := 0; j0 < out; j0 += tileOut {
			cnt := d.p.dotTile(&acc, xrow, j0)
			for jj, a := range acc[:cnt] {
				j := j0 + jj
				drow[j] = float64(a)*d.deq[j] + d.biasF[j]
			}
		}
	}
}

// int8Im2col lowers one int8 (C,H,W) sample into columns
// [colOff, colOff+oh·ow) of a pre-zeroed (C·K·K, stride) matrix — the int8
// twin of the float im2col; padding positions rely on the cleared
// destination.
func int8Im2col(dst []int8, stride, colOff int, x []int8, cc, h, w, k, cstride, pad, oh, ow int) {
	for ch := 0; ch < cc; ch++ {
		chOff := ch * h * w
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				row := dst[((ch*k+ky)*k+kx)*stride+colOff:]
				if cstride == 1 {
					// Unit stride: the valid ox span maps to a contiguous
					// input run, so each output row is one memmove.
					o0, o1 := 0, ow
					if pad-kx > 0 {
						o0 = pad - kx
					}
					if w+pad-kx < ow {
						o1 = w + pad - kx
					}
					if o1 <= o0 {
						continue
					}
					for oy := 0; oy < oh; oy++ {
						iy := oy + ky - pad
						if iy < 0 || iy >= h {
							continue
						}
						copy(row[oy*ow+o0:oy*ow+o1], x[chOff+iy*w+o0+kx-pad:])
					}
					continue
				}
				for oy := 0; oy < oh; oy++ {
					iy := oy*cstride + ky - pad
					if iy < 0 || iy >= h {
						continue
					}
					for ox := 0; ox < ow; ox++ {
						ix := ox*cstride + kx - pad
						if ix < 0 || ix >= w {
							continue
						}
						row[oy*ow+ox] = x[chOff+iy*w+ix]
					}
				}
			}
		}
	}
}

// Int8Conv2D is the batched quantized convolution: int8 im2col lowering of
// a chunk of samples, one int8 GEMM into int32 accumulators, and a fused
// bias/requant/ReLU epilogue that scatters straight back to NCHW. The
// caller owns the cols/acc scratch, sized for at least one sample
// (rows·oh·ow and outC·oh·ow); the batch runs in chunks of as many samples
// as it holds, so a steady-state call allocates nothing. Not safe for
// concurrent use.
type Int8Conv2D struct {
	x, w, dst, cols                                   []int8
	acc                                               []int32
	bias, mult, shift                                 []int32
	n, inC, h, wd, outC, k, stride, pad, oh, ow, pool int
	lo, hi                                            int32
	imFn, reqFn                                       func(i0, i1 int)
	gemm                                              Int8GEMM
}

// Run convolves x (n, inC, h, wd) with w (outC, inC·k·k) into dst NCHW
// int8. bias (length outC, accumulator domain) and per-channel (or
// broadcast) mult/shift form the epilogue; [lo, hi] is the saturation
// range with lo = 0 fusing a ReLU.
func (c *Int8Conv2D) Run(ctx *Context, dst, x, w []int8, bias, mult, shift []int32, cols []int8, acc []int32, n, inC, h, wd, outC, k, stride, pad int, lo, hi int32) {
	c.RunMaxPool(ctx, dst, x, w, bias, mult, shift, cols, acc, n, inC, h, wd, outC, k, stride, pad, 1, lo, hi)
}

// RunMaxPool is Run followed by a pool×pool max-pool (stride pool, trailing
// rows and columns dropped), fused into the epilogue: dst is the pooled
// (n, outC, oh/pool, ow/pool) output. Every mult must be ≥ 0 (see
// requantMaxPool); pool = 1 is Run.
func (c *Int8Conv2D) RunMaxPool(ctx *Context, dst, x, w []int8, bias, mult, shift []int32, cols []int8, acc []int32, n, inC, h, wd, outC, k, stride, pad, pool int, lo, hi int32) {
	oh := (h+2*pad-k)/stride + 1
	ow := (wd+2*pad-k)/stride + 1
	rows := inC * k * k
	span := oh * ow
	c.w = w
	c.bias, c.mult, c.shift = bias, mult, shift
	c.inC, c.h, c.wd = inC, h, wd
	c.outC, c.k, c.stride, c.pad, c.oh, c.ow = outC, k, stride, pad, oh, ow
	c.pool, c.lo, c.hi = pool, lo, hi
	if c.imFn == nil {
		c.imFn = c.im2colRange
		c.reqFn = c.requantRange
	}
	outSample := outC * (oh / pool) * (ow / pool)
	// The batch runs in chunks of as many samples as the scratch holds.
	chunk := max(1, min(len(cols)/(rows*span), len(acc)/(outC*span)))
	for s0 := 0; s0 < n; s0 += chunk {
		c.n = min(chunk, n-s0)
		width := c.n * span
		c.x, c.dst = x[s0*inC*h*wd:], dst[s0*outSample:]
		c.cols, c.acc = cols[:rows*width], acc[:outC*width]
		// Batched im2col: sample i owns column block [i·span, (i+1)·span).
		clear(c.cols)
		ctx.For(c.n, 1, c.imFn)
		// One GEMM for the chunk; bias joins in the epilogue (the
		// accumulator domain, unlike the float path's row-start fusion).
		c.gemm.MatMul(ctx, c.acc, w, c.cols, outC, rows, width)
		// Requant + NCHW scatter, partitioned by output channel: channel oc
		// writes the disjoint planes (i·outC+oc)·span for every sample i.
		ctx.ParallelFor(outC, 8*width, c.reqFn)
	}
}

func (c *Int8Conv2D) im2colRange(i0, i1 int) {
	span := c.oh * c.ow
	width := c.n * span
	sampleIn := c.inC * c.h * c.wd
	for i := i0; i < i1; i++ {
		int8Im2col(c.cols, width, i*span, c.x[i*sampleIn:(i+1)*sampleIn],
			c.inC, c.h, c.wd, c.k, c.stride, c.pad, c.oh, c.ow)
	}
}

func (c *Int8Conv2D) requantRange(c0, c1 int) {
	span := c.oh * c.ow
	width := c.n * span
	for oc := c0; oc < c1; oc++ {
		ci := requantIndex(c.mult, oc)
		mult, shift := c.mult[ci], int(c.shift[ci])
		var bias int32
		if c.bias != nil {
			bias = c.bias[oc]
		}
		for i := 0; i < c.n; i++ {
			src := c.acc[oc*width+i*span : oc*width+(i+1)*span]
			if c.pool > 1 {
				pooled := (c.oh / c.pool) * (c.ow / c.pool)
				dst := c.dst[(i*c.outC+oc)*pooled : (i*c.outC+oc+1)*pooled]
				requantMaxPool(dst, src, c.ow, c.pool, bias, mult, shift, c.lo, c.hi)
				continue
			}
			dst := c.dst[(i*c.outC+oc)*span : (i*c.outC+oc+1)*span]
			requantRNERange(dst, src, bias, mult, shift, c.lo, c.hi)
		}
	}
}

// Int8DWConv2D is the direct quantized depthwise kernel: each (sample,
// channel) block convolves with its channel's K×K filter and requantizes in
// place — the same partitioning as the float depthwise layer, with the
// bias/ReLU epilogue fused. Not safe for concurrent use.
type Int8DWConv2D struct {
	x, w, dst                           []int8
	bias, mult, shift                   []int32
	n, c, h, wd, k, stride, pad, oh, ow int
	lo, hi                              int32
	fn                                  func(b0, b1 int)
}

// Run convolves x (n, ch, h, wd) with per-channel filters w (ch, k·k).
func (c *Int8DWConv2D) Run(ctx *Context, dst, x, w []int8, bias, mult, shift []int32, n, ch, h, wd, k, stride, pad int, lo, hi int32) {
	c.oh = (h+2*pad-k)/stride + 1
	c.ow = (wd+2*pad-k)/stride + 1
	c.x, c.w, c.dst = x, w, dst
	c.bias, c.mult, c.shift = bias, mult, shift
	c.n, c.c, c.h, c.wd = n, ch, h, wd
	c.k, c.stride, c.pad = k, stride, pad
	c.lo, c.hi = lo, hi
	if c.fn == nil {
		c.fn = c.forwardBlocks
	}
	ctx.ParallelFor(n*ch, 2*c.oh*c.ow*k*k, c.fn)
}

func (c *Int8DWConv2D) forwardBlocks(b0, b1 int) {
	h, w, k := c.h, c.wd, c.k
	oh, ow := c.oh, c.ow
	for blk := b0; blk < b1; blk++ {
		ch := blk % c.c
		src := c.x[blk*h*w:]
		dst := c.dst[blk*oh*ow:]
		wrow := c.w[ch*k*k:]
		var bias int32
		if c.bias != nil {
			bias = c.bias[ch]
		}
		ci := requantIndex(c.mult, ch)
		mult, shift := c.mult[ci], int(c.shift[ci])
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				acc := bias
				for ky := 0; ky < k; ky++ {
					iy := oy*c.stride + ky - c.pad
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < k; kx++ {
						ix := ox*c.stride + kx - c.pad
						if ix < 0 || ix >= w {
							continue
						}
						acc += int32(wrow[ky*k+kx]) * int32(src[iy*w+ix])
					}
				}
				dst[oy*ow+ox] = RequantizeRNE(acc, mult, shift, c.lo, c.hi)
			}
		}
	}
}

// Int8Quantize converts a float activation buffer to the symmetric int8
// grid: dst[i] = clamp(rne(src[i]/scale), ±hi). It is the executor's input
// stage; elementwise fan-out with a cached closure.
type Int8Quantize struct {
	src []float64
	dst []int8
	inv float64
	hi  int32
	fn  func(i0, i1 int)
}

// Run quantizes src into dst with the given scale (0 maps everything to 0).
func (q *Int8Quantize) Run(ctx *Context, dst []int8, src []float64, scale float64, hi int32) {
	q.dst, q.src, q.hi = dst, src[:len(dst)], hi
	q.inv = 0
	if scale != 0 {
		q.inv = 1 / scale
	}
	if q.fn == nil {
		q.fn = q.quantRange
	}
	ctx.ParallelFor(len(dst), 4, q.fn)
}

func (q *Int8Quantize) quantRange(i0, i1 int) {
	lo, hi := float64(-q.hi), float64(q.hi)
	for i := i0; i < i1; i++ {
		v := math.RoundToEven(q.src[i] * q.inv)
		if v > hi {
			v = hi
		}
		if v < lo {
			v = lo
		}
		q.dst[i] = int8(v)
	}
}
