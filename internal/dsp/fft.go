// Package dsp implements the signal-processing front-ends of solarml: a
// radix-2 FFT, audio framing with the paper's window-stripe/duration/feature
// parameters, a mel-filterbank cepstral feature extractor for the KWS task,
// and linear resampling for the gesture sensing rate parameter.
package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
)

// nextPow2 returns the smallest power of two ≥ n.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// FFT computes the in-place radix-2 Cooley-Tukey FFT of x.
// len(x) must be a power of two.
func FFT(x []complex128) {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("dsp: FFT length %d is not a power of two", n))
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wl := cmplx.Exp(complex(0, ang))
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			for j := 0; j < length/2; j++ {
				u := x[i+j]
				v := x[i+j+length/2] * w
				x[i+j] = u + v
				x[i+j+length/2] = u - v
				w *= wl
			}
		}
	}
}

// IFFT computes the inverse FFT in place.
func IFFT(x []complex128) {
	for i := range x {
		x[i] = cmplx.Conj(x[i])
	}
	FFT(x)
	n := complex(float64(len(x)), 0)
	for i := range x {
		x[i] = cmplx.Conj(x[i]) / n
	}
}

// PowerSpectrum returns |FFT(x)|² for the first n/2+1 bins of a real signal,
// zero-padding x to the next power of two.
func PowerSpectrum(x []float64) []float64 {
	n := nextPow2(len(x))
	buf := make([]complex128, n)
	for i, v := range x {
		buf[i] = complex(v, 0)
	}
	FFT(buf)
	out := make([]float64, n/2+1)
	for i := range out {
		out[i] = real(buf[i])*real(buf[i]) + imag(buf[i])*imag(buf[i])
	}
	return out
}

// HammingWindow returns an n-point Hamming window.
func HammingWindow(n int) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		w[i] = 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(n-1))
	}
	return w
}

// DCTII computes the orthonormal DCT-II of x, returning the first k
// coefficients. Used to decorrelate log-mel energies into cepstra.
func DCTII(x []float64, k int) []float64 {
	n := len(x)
	if k > n {
		k = n
	}
	out := make([]float64, k)
	for j := 0; j < k; j++ {
		s := 0.0
		for i := 0; i < n; i++ {
			s += x[i] * math.Cos(math.Pi*float64(j)*(float64(i)+0.5)/float64(n))
		}
		scale := math.Sqrt(2.0 / float64(n))
		if j == 0 {
			scale = math.Sqrt(1.0 / float64(n))
		}
		out[j] = s * scale
	}
	return out
}

// Resample converts x to outLen samples by linear interpolation. It models
// changing the gesture sampling rate r in the eNAS search space.
func Resample(x []float64, outLen int) []float64 {
	if outLen <= 0 {
		panic(fmt.Sprintf("dsp: Resample to %d samples", outLen))
	}
	out := make([]float64, outLen)
	if len(x) == 1 {
		for i := range out {
			out[i] = x[0]
		}
		return out
	}
	scale := float64(len(x)-1) / float64(max(outLen-1, 1))
	for i := range out {
		pos := float64(i) * scale
		lo := int(pos)
		if lo >= len(x)-1 {
			out[i] = x[len(x)-1]
			continue
		}
		frac := pos - float64(lo)
		out[i] = x[lo]*(1-frac) + x[lo+1]*frac
	}
	return out
}
