package serve

import (
	"math"
	"math/big"
	"math/bits"
	"strconv"
	"sync"
)

// A /classify body is hundreds of numbers, so the decoder parses each one in
// a single pass instead of scanning it and then handing a copy to strconv.
// parseNumber checks the JSON number grammar while it gathers the first 19
// significant digits into a uint64 mantissa and a decimal exponent, then
// converts through the first exact path that applies:
//
//  1. Clinger's fast path: a mantissa below 2^53 and an exponent within
//     ±22 are both exact float64s, so one correctly rounded multiply or
//     divide gives the correctly rounded value.
//  2. Eisel–Lemire (Lemire, "Number Parsing at a Gigabyte per Second",
//     2021): multiply the normalized mantissa by a 128-bit truncation of
//     10^exp and round the top 54 bits. The truncation leaves the product
//     within a known error, and the algorithm gives up on exactly the
//     inputs where that error could change the rounding.
//  3. strconv.ParseFloat on the number's bytes, for what neither path
//     decides: a nonzero digit past the 19th, an exponent outside the
//     table, a result outside float64's normal range (overflow, underflow
//     and subnormals), and the halfway cases Eisel–Lemire cannot settle.
//
// Every path rounds to nearest, ties to even, so each value is the one
// strconv.ParseFloat(…, 64), and so encoding/json, returns.

// maxMantDigits is the most significant digits a uint64 holds for any
// digits: 10^19 − 1 < 2^64.
const maxMantDigits = 19

// exactPow10 holds the powers of ten that are exact float64s.
var exactPow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// parseNumber scans the JSON number that starts at b[start] and returns its
// value and the offset just past it. A number that breaks the grammar or
// overflows float64 is a *syntaxError.
func parseNumber(b []byte, start int) (float64, int, error) {
	i := start
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var (
		mant  uint64 // the first maxMantDigits significant digits
		nd    int    // significant digits in mant
		exp10 int    // the value is mant × 10^exp10 plus what was dropped
		// slow leaves the value to strconv: a nonzero digit past the
		// maxMantDigits-th was dropped, or the exponent is too long to hold.
		slow bool
	)
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i]-'1' < 9:
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			if nd < maxMantDigits {
				mant = mant*10 + uint64(b[i]-'0')
				nd++
			} else {
				exp10++
				slow = slow || b[i] != '0'
			}
		}
	default:
		return 0, start, &syntaxError{start, "a number"}
	}
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			if nd < maxMantDigits {
				mant = mant*10 + uint64(b[i]-'0')
				exp10--
				if mant != 0 { // zeros before the first nonzero digit are not significant
					nd++
				}
			} else {
				slow = slow || b[i] != '0'
			}
		}
		if i == frac {
			return 0, start, &syntaxError{i, "a digit after '.'"}
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		expNeg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		digits, e := i, 0
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			if e < 1e4 { // and e ≤ 99999, so exp10 cannot overflow
				e = e*10 + int(b[i]-'0')
			} else { // far outside the table unless the mantissa is as long
				slow = true
			}
		}
		if i == digits {
			return 0, start, &syntaxError{i, "a digit in the exponent"}
		}
		if expNeg {
			e = -e
		}
		exp10 += e
	}
	if !slow {
		if v, ok := decimalToFloat(mant, exp10, neg); ok {
			return v, i, nil
		}
	}
	v, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil {
		// The grammar held, so only overflow is left; encoding/json
		// refuses it too.
		return 0, start, &syntaxError{start, "a number within float64 range"}
	}
	return v, i, nil
}

// decimalToFloat returns ±mant × 10^exp10 correctly rounded, through
// Clinger's fast path or Eisel–Lemire; ok is false when neither decides it.
func decimalToFloat(mant uint64, exp10 int, neg bool) (f float64, ok bool) {
	switch {
	case mant == 0:
		f, ok = 0, true
	case mant < 1<<53 && -len(exactPow10) < exp10 && exp10 < len(exactPow10):
		f, ok = float64(mant), true
		if exp10 < 0 {
			f /= exactPow10[-exp10]
		} else {
			f *= exactPow10[exp10]
		}
	default:
		f, ok = eiselLemire(mant, exp10)
	}
	if neg {
		f = -f
	}
	return f, ok
}

// The 128-bit power table covers 10^minPow10 … 10^maxPow10. A 19-digit
// mantissa times 10^-343 already rounds to 0 and times 10^309 overflows, so
// the range leaves every finite nonzero result to the table.
const (
	minPow10 = -348
	maxPow10 = 347
)

// pow10Table holds, for each exponent e in range, 10^e scaled by a power of
// two into [2^127, 2^128) and truncated: {high 64 bits, low 64 bits}. It is
// built on first use so that a binary importing the package pays nothing
// until a number needs it.
var pow10Table = sync.OnceValue(func() *[maxPow10 - minPow10 + 1][2]uint64 {
	var t [maxPow10 - minPow10 + 1][2]uint64
	mask := new(big.Int).SetUint64(math.MaxUint64)
	set := func(e int, x *big.Int) {
		t[e-minPow10] = [2]uint64{new(big.Int).Rsh(x, 64).Uint64(), new(big.Int).And(x, mask).Uint64()}
	}
	p, x := big.NewInt(1), new(big.Int) // p = 10^k
	for k := 0; k <= max(maxPow10, -minPow10); k++ {
		l := p.BitLen()
		if k <= maxPow10 { // 10^k × 2^(128−l), truncated
			if l <= 128 {
				x.Lsh(p, uint(128-l))
			} else {
				x.Rsh(p, uint(l-128))
			}
			set(k, x)
		}
		if k > 0 && -k >= minPow10 { // 2^(127+l) / 10^k, truncated
			x.Lsh(big.NewInt(1), uint(127+l))
			set(-k, x.Quo(x, p))
		}
		p.Mul(p, big.NewInt(10))
	}
	return &t
})

// log2Pow10 returns ⌊log2(10^e)⌋ for e in the table's range: 217706/2^16
// matches log2(10) closely enough there, as the table test checks.
func log2Pow10(e int) int { return 217706 * e >> 16 }

// eiselLemire returns mant × 10^exp10 (mant > 0) correctly rounded to a
// normal float64, or ok false when the 128-bit product cannot decide the
// rounding, exp10 is outside the table, or the result is not a normal
// float64.
func eiselLemire(mant uint64, exp10 int) (f float64, ok bool) {
	if exp10 < minPow10 || exp10 > maxPow10 {
		return 0, false
	}
	pow := &pow10Table()[exp10-minPow10]
	lz := bits.LeadingZeros64(mant)
	w := mant << lz
	// The biased exponent the result has when the product's top bit is
	// set; one less when it is not.
	exp2 := uint64(log2Pow10(exp10)+64+1023) - uint64(lz)

	// w × the high word, then the low word only when what it leaves out
	// could carry into the bits that decide the rounding: bits 8…0 of hi
	// all ones and lo within w of overflowing.
	hi, lo := bits.Mul64(w, pow[0])
	if hi&0x1ff == 0x1ff && lo+w < w {
		yHi, yLo := bits.Mul64(w, pow[1])
		var carry uint64
		lo, carry = bits.Add64(lo, yHi, 0)
		hi += carry
		if hi&0x1ff == 0x1ff && lo+1 == 0 && yLo+w < w {
			return 0, false
		}
	}

	// Keep 54 bits: the 53 of the result and the rounding bit below them.
	top := hi >> 63
	m := hi >> (top + 9)
	exp2 -= 1 ^ top
	// Every discarded bit zero and the rounding bit set with an even last
	// bit: the product reads as a tie, but the truncated power may hide
	// a remainder that makes it round up.
	if lo == 0 && hi&0x1ff == 0 && m&3 == 1 {
		return 0, false
	}
	m = (m + m&1) >> 1
	if m>>53 != 0 { // rounding carried into a 54th bit
		m >>= 1
		exp2++
	}
	if exp2-1 >= 0x7ff-1 { // exp2 is 0 (subnormal) or ≥ 0x7ff (overflow), or wrapped below 0
		return 0, false
	}
	return math.Float64frombits(exp2<<52 | m&(1<<52-1)), true
}
