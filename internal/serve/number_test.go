package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"solarml/internal/quant"
)

// checkParse holds parseNumber to strconv.ParseFloat(s, 64) on a whole JSON
// number: the same bits, or a range error where strconv overflows.
func checkParse(t *testing.T, s string) {
	t.Helper()
	want, werr := strconv.ParseFloat(s, 64)
	got, end, err := parseNumber([]byte(s), 0, pow10Table())
	switch {
	case werr != nil:
		if !errors.Is(werr, strconv.ErrRange) {
			t.Fatalf("%s: strconv: %v", s, werr)
		}
		if err == nil || err.Error() != (&syntaxError{0, "a number within float64 range"}).Error() {
			t.Fatalf("%s: got %v (err %v), strconv overflows", s, got, err)
		}
	case err != nil:
		t.Fatalf("%s: %v, strconv %v", s, err, want)
	case end != len(s):
		t.Fatalf("%s: stopped at %d of %d bytes", s, end, len(s))
	case math.Float64bits(got) != math.Float64bits(want):
		t.Fatalf("%s: %v (%#x), strconv %v (%#x)", s, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// checkStop holds parseNumber to strconv on a number with more bytes after
// it: it must stop at the end of the longest prefix that is a JSON number,
// with strconv's value for that prefix.
func checkStop(t *testing.T, b []byte) {
	t.Helper()
	want := 0
	for p := 1; p <= len(b); p++ {
		if json.Valid(b[:p]) {
			want = p
		}
	}
	got, end, err := parseNumber(b, 0, pow10Table())
	if err != nil || end != want {
		t.Fatalf("%q: stopped at %d (err %v), want %d", b, end, err, want)
	}
	v, err := strconv.ParseFloat(string(b[:end]), 64)
	if err != nil || math.Float64bits(got) != math.Float64bits(v) {
		t.Fatalf("%q: %v, strconv %v (%v)", b[:end], got, v, err)
	}
}

// TestPow10Table checks each table entry T against its definition: with
// p = log2Pow10(e), T ≤ 10^e × 2^(127−p) < T+1 and 2^127 ≤ T < 2^128.
func TestPow10Table(t *testing.T) {
	tab := pow10Table()
	one := big.NewInt(1)
	for e := minPow10; e <= maxPow10; e++ {
		hi, lo := tab[e-minPow10][0], tab[e-minPow10][1]
		T := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
		T.Or(T, new(big.Int).SetUint64(lo))
		if T.BitLen() != 128 {
			t.Fatalf("10^%d: entry has %d bits, want 128", e, T.BitLen())
		}
		pow := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil)
		shift := 127 - log2Pow10(e)
		// Compare a×T ≤ b < a×(T+1) with integers on both sides.
		a, b := big.NewInt(1), new(big.Int)
		switch {
		case e < 0: // 10^e × 2^shift = 2^shift / 10^-e
			a.Set(pow)
			b.Lsh(one, uint(shift))
		case shift >= 0:
			b.Lsh(pow, uint(shift))
		default:
			a.Lsh(one, uint(-shift))
			b.Set(pow)
		}
		lower := new(big.Int).Mul(a, T)
		upper := new(big.Int).Add(lower, a)
		if lower.Cmp(b) > 0 || b.Cmp(upper) >= 0 {
			t.Fatalf("10^%d: entry %#x%016x is not the truncated power", e, hi, lo)
		}
	}
}

// TestParseNumberMatchesStrconv compares parseNumber with
// strconv.ParseFloat bit for bit over every table exponent, random float64
// bit patterns in shortest and fixed-precision forms, 8-bit readings, long
// mantissas, digit runs around the eight-digit steps and the edge values
// of float64.
func TestParseNumberMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))

	mants := []uint64{1, 7, 12345, 1<<53 - 1, 1 << 53, 1<<53 + 1, 1 << 63, 1<<63 + 1, 9999999999999999999}
	for e := minPow10 - 2; e <= maxPow10+2; e++ {
		for _, m := range mants {
			checkParse(t, fmt.Sprintf("%de%d", m, e))
		}
		checkParse(t, fmt.Sprintf("-%de%d", rng.Uint64()%1e19, e))
		checkParse(t, fmt.Sprintf("%dE%+d", rng.Uint64()>>rng.Intn(64), e))
	}

	for i := 0; i < 20000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		checkParse(t, strconv.FormatFloat(f, 'e', -1, 64))
		checkParse(t, strconv.FormatFloat(f, 'e', rng.Intn(25), 64))
		checkParse(t, strconv.FormatFloat(f, 'g', -1, 64))
		if math.Abs(f) < 1e30 && math.Abs(f) > 1e-30 {
			checkParse(t, strconv.FormatFloat(f, 'f', -1, 64))
			checkParse(t, strconv.FormatFloat(f, 'f', rng.Intn(25), 64))
		}
	}

	// 8-bit readings, as k/255 and as quantized [-1, 1] sensor values: the
	// fast paths decide every one of them.
	for k := 0; k <= 255; k++ {
		for _, v := range []float64{float64(k) / 255, quant.QuantizeInt(float64(k)/127.5-1, 8, -1, 1)} {
			checkParse(t, strconv.FormatFloat(v, 'g', -1, 64))
			if !fastPath(v) {
				t.Errorf("%v: left to strconv", v)
			}
		}
	}

	// 20–30-digit mantissas: past the 19 a uint64 holds, with and without
	// a nonzero digit dropped, around the decimal point.
	for i := 0; i < 5000; i++ {
		n := 20 + rng.Intn(11)
		digits := []byte(strconv.FormatUint(1+rng.Uint64()%9, 10))
		for len(digits) < n {
			digits = append(digits, byte('0'+rng.Intn(10)))
		}
		if rng.Intn(2) == 0 {
			for j := 19; j < n; j++ {
				digits[j] = '0'
			}
		}
		s := string(digits)
		if dot := rng.Intn(n + 1); dot < n {
			s = s[:dot] + "." + s[dot:]
			if dot == 0 {
				s = "0" + s
			}
		}
		checkParse(t, fmt.Sprintf("%se%d", s, rng.Intn(700)-360))
	}

	// Digit runs of 1–20 around the eight-digit steps: the chunks at 8 and
	// 16 digits and the 19-digit cap, in the integer, in the fraction and
	// in both, with random digits, all nines and all zeros after the first.
	run := func(n int, fill byte) string { // n copies of fill, or n random digits for fill 0
		if fill != 0 {
			return strings.Repeat(string(rune(fill)), n)
		}
		d := make([]byte, n)
		for j := range d {
			d[j] = byte('0' + rng.Intn(10))
		}
		return string(d)
	}
	for n := 1; n <= 20; n++ {
		for _, fill := range []byte{0, '9', '0'} {
			lead := string(rune('1' + rng.Intn(9)))
			checkParse(t, lead+run(n-1, fill))
			checkParse(t, "0."+run(n, fill))
			checkParse(t, "-"+lead+"."+run(n, fill)+"e-3")
			for m := 1; m <= 20; m++ {
				checkParse(t, lead+run(n-1, fill)+"."+run(m, fill))
			}
		}
	}

	// Leading fraction zeros, fewer and more than a chunk, before runs of
	// 1–20 significant digits: only the digits after them count.
	for z := 0; z <= 20; z++ {
		for n := 1; n <= 20; n++ {
			checkParse(t, "0."+strings.Repeat("0", z)+string(rune('1'+rng.Intn(9)))+run(n-1, 0))
		}
	}

	// A non-digit at each offset of the first three chunks, in the integer
	// and in the fraction, with eight more bytes behind it so that a chunk
	// load would reach past it. '/' and ':' are the bytes either side of
	// the digits.
	for n := 1; n <= 24; n++ {
		for _, stop := range []string{"e", ",", "]", ".", "-", "/", ":"} {
			for _, pre := range []string{"", "0.", "1.", "0.00"} {
				digits := string(rune('1'+rng.Intn(9))) + run(n-1, 0)
				checkStop(t, []byte(pre+digits+stop+"00000012]"))
			}
			checkStop(t, []byte("0."+run(n, '0')+stop+"00000012]"))
		}
	}

	// A number that ends at len(b) of a slice whose backing array goes on
	// with digits: the parser must not read past len(b).
	for _, whole := range []string{"123456789012345678901234567", "0.12345678901234567890123456", "0.0000000012345678901234"} {
		buf := []byte(whole)
		for n := 1; n <= len(buf); n++ {
			b := buf[:n]
			if !json.Valid(b) {
				continue
			}
			got, end, err := parseNumber(b, 0, pow10Table())
			if want, _ := strconv.ParseFloat(string(b), 64); err != nil || end != n || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%q of %q: %v to %d (err %v), strconv %v", b, whole, got, end, err, want)
			}
		}
	}

	for _, s := range []string{
		"0", "-0", "0.0", "-0.0", "0e0", "-0e-5", "0e999999999999", "0.000000000000000000000000000",
		"5e-324", "4.9406564584124654e-324", "2e-324", "3e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
		"2.2250738585072009e-308", "2.2250738585072011e-308", "2.2250738585072012e-308", "2.2250738585072014e-308",
		"1.7976931348623157e308", "1.7976931348623158e308", "-1.7976931348623157e+308", "1.7976931348623159e308",
		"9007199254740992", "9007199254740993", "9007199254740994", "9007199254740995", "-9007199254740993",
		"1e-400", "-1e-400", "1e-99999999999", "1e23", "8.98846567431158e307", "1e22", "1e-22",
		"123456789012345678901234567890e-30", "0.1", "0.3", "1E5", "1e+5", "1.5e-2",
		"1" + strings.Repeat("0", 308), "0." + strings.Repeat("0", 400) + "1e400",
		// Exponents too long to hold, against as many leading zeros: these
		// go to strconv, which stops reading an exponent at 10000 as well.
		"0." + strings.Repeat("0", 20000) + "1e20004", "0." + strings.Repeat("0", 10000) + "1e100005",
	} {
		checkParse(t, s)
	}
}

// fastPath reports whether Clinger's path or Eisel–Lemire converts the
// shortest form of v without strconv.
func fastPath(v float64) bool {
	mant, exp, _ := strings.Cut(strconv.FormatFloat(math.Abs(v), 'e', -1, 64), "e")
	digits := strings.Replace(mant, ".", "", 1)
	m, err1 := strconv.ParseUint(digits, 10, 64)
	e, err2 := strconv.Atoi(exp)
	if err1 != nil || err2 != nil {
		panic(fmt.Sprint(v, err1, err2))
	}
	_, ok := decimalToFloat(m, e-(len(digits)-1), false, pow10Table())
	return ok
}

// FuzzParseNumber holds parseNumber to strconv.ParseFloat: every number it
// accepts is a JSON number with strconv's value, bit for bit; every JSON
// number it refuses overflows float64; and every formatting of a finite
// float64 that is a JSON number parses to strconv's value.
func FuzzParseNumber(f *testing.F) {
	for _, s := range []string{"0", "-0", "1.5e-2", "9007199254740993", "5e-324", "1e999", "01", "1.",
		"0.00392156862745098", "123456789012345678901234567890", "1e-400", "-", "1e+"} {
		f.Add([]byte(s), 0.0, uint8(0), int8(-1))
	}
	f.Add([]byte("x"), 0.1, uint8(0), int8(-1))
	f.Add([]byte("x"), 2.2250738585072014e-308, uint8(1), int8(17))
	f.Add([]byte("x"), -1e300, uint8(2), int8(3))
	// The eight-digit steps: runs that end inside, at and past a chunk and
	// the 19-digit cap, leading fraction zeros, and a chunk cut short.
	for _, s := range []string{"12345678", "123456789012345678", "1234567890123456789", "12345678901234567890",
		"0.5686274509803921", "-0.00392156862745098", "0.000000001234567890123", "99999999.99999999e-5",
		"1234567e8,", "1234567890123.]", "0.1234567-", "1.00000000000000000001"} {
		f.Add([]byte(s), 0.0, uint8(0), int8(-1))
	}
	f.Fuzz(func(t *testing.T, b []byte, x float64, format uint8, prec int8) {
		if len(b) > 0 && json.Valid(b) && (b[0] == '-' || b[0]-'0' < 10) && b[len(b)-1]-'0' < 10 {
			checkParse(t, string(b)) // a whole JSON number
		} else if v, end, err := parseNumber(b, 0, pow10Table()); err == nil {
			if !json.Valid(b[:end]) {
				t.Fatalf("%q: accepted %q, not a JSON number", b, b[:end])
			}
			want, werr := strconv.ParseFloat(string(b[:end]), 64)
			if werr != nil || math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("%q: %v, strconv %v (%v)", b[:end], v, want, werr)
			}
		}

		if math.IsNaN(x) || math.IsInf(x, 0) {
			return
		}
		checkParse(t, strconv.FormatFloat(x, "efg"[format%3], int(prec)%30, 64))
	})
}
