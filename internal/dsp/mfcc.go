package dsp

import (
	"fmt"
	"math"
)

// FrontEndConfig parameterizes the KWS audio front-end with the three
// sensing parameters of the paper's Table II search space:
//
//   - StripeMS (s): frame shift in milliseconds, s ∈ [10, 30]
//   - DurationMS (d): frame length in milliseconds, d ∈ [18, 30]
//   - NumFeatures (f): cepstral coefficients per frame, f ∈ [10, 40]
//
// Longer stripes mean fewer frames sampled and processed (less sensing
// energy, less temporal detail); more features mean more filterbank and DCT
// work per frame (more energy, more spectral detail).
type FrontEndConfig struct {
	SampleRate  int
	StripeMS    int
	DurationMS  int
	NumFeatures int
}

// StripeBounds is the Table II range for the window stripe s.
func StripeBounds() (int, int) { return 10, 30 }

// DurationBounds is the Table II range for the window duration d.
func DurationBounds() (int, int) { return 18, 30 }

// FeatureBounds is the Table II range for the feature count f.
func FeatureBounds() (int, int) { return 10, 40 }

// maxSampleRate bounds the sample rate so the frame arithmetic cannot
// overflow; it is far above any microphone front end.
const maxSampleRate = 1 << 24

// Validate checks the configuration against Table II, and that the sample
// rate leaves at least one sample per frame and per stripe.
func (c FrontEndConfig) Validate() error {
	if c.SampleRate <= 0 || c.SampleRate > maxSampleRate {
		return fmt.Errorf("dsp: sample rate %d", c.SampleRate)
	}
	if lo, hi := StripeBounds(); c.StripeMS < lo || c.StripeMS > hi {
		return fmt.Errorf("dsp: stripe %d ms outside [%d,%d]", c.StripeMS, lo, hi)
	}
	if lo, hi := DurationBounds(); c.DurationMS < lo || c.DurationMS > hi {
		return fmt.Errorf("dsp: duration %d ms outside [%d,%d]", c.DurationMS, lo, hi)
	}
	if lo, hi := FeatureBounds(); c.NumFeatures < lo || c.NumFeatures > hi {
		return fmt.Errorf("dsp: features %d outside [%d,%d]", c.NumFeatures, lo, hi)
	}
	if c.FrameLen() < 1 || c.FrameShift() < 1 {
		return fmt.Errorf("dsp: sample rate %d Hz gives empty frames", c.SampleRate)
	}
	return nil
}

// FrameLen returns the frame length in samples.
func (c FrontEndConfig) FrameLen() int { return c.SampleRate * c.DurationMS / 1000 }

// FrameShift returns the frame shift in samples.
func (c FrontEndConfig) FrameShift() int { return c.SampleRate * c.StripeMS / 1000 }

// NumFrames returns how many frames a signal of n samples produces.
func (c FrontEndConfig) NumFrames(n int) int {
	fl, fs := c.FrameLen(), c.FrameShift()
	if n < fl {
		return 0
	}
	return (n-fl)/fs + 1
}

// melScale converts Hz to mel.
func melScale(hz float64) float64 { return 2595 * math.Log10(1+hz/700) }

// melInverse converts mel to Hz.
func melInverse(mel float64) float64 { return 700 * (math.Pow(10, mel/2595) - 1) }

// melFilterbank builds nFilters triangular filters over nBins power-spectrum
// bins for the given sample rate.
func melFilterbank(nFilters, nBins, sampleRate int) [][]float64 {
	fMax := float64(sampleRate) / 2
	melMax := melScale(fMax)
	centers := make([]float64, nFilters+2)
	for i := range centers {
		hz := melInverse(melMax * float64(i) / float64(nFilters+1))
		centers[i] = hz / fMax * float64(nBins-1)
	}
	fb := make([][]float64, nFilters)
	for f := 0; f < nFilters; f++ {
		fb[f] = make([]float64, nBins)
		lo, mid, hi := centers[f], centers[f+1], centers[f+2]
		for b := 0; b < nBins; b++ {
			x := float64(b)
			switch {
			case x >= lo && x <= mid && mid > lo:
				fb[f][b] = (x - lo) / (mid - lo)
			case x > mid && x <= hi && hi > mid:
				fb[f][b] = (hi - x) / (hi - mid)
			}
		}
	}
	return fb
}

// Extract converts a mono signal to a (frames × NumFeatures) cepstral
// feature matrix: Hamming window → power spectrum → mel filterbank →
// log → DCT-II.
func (c FrontEndConfig) Extract(signal []float64) [][]float64 {
	nf := c.NumFrames(len(signal))
	fl, fs := c.FrameLen(), c.FrameShift()
	win := HammingWindow(fl)
	nFFT := nextPow2(fl)
	nBins := nFFT/2 + 1
	nMels := c.NumFeatures + 2
	fb := melFilterbank(nMels, nBins, c.SampleRate)
	out := make([][]float64, nf)
	frame := make([]float64, fl)
	for i := 0; i < nf; i++ {
		start := i * fs
		for j := 0; j < fl; j++ {
			frame[j] = signal[start+j] * win[j]
		}
		ps := PowerSpectrum(frame)
		logMel := make([]float64, nMels)
		for m := 0; m < nMels; m++ {
			s := 0.0
			for b, w := range fb[m] {
				if w != 0 {
					s += w * ps[b]
				}
			}
			logMel[m] = math.Log(s + 1e-10)
		}
		out[i] = DCTII(logMel, c.NumFeatures)
	}
	return out
}

// FrontEndMACs estimates the arithmetic work of Extract for a signal of n
// samples: windowing, FFT (5·N·log₂N real ops), filterbank and DCT. The
// sensing energy model uses it as the processing-cost feature.
func (c FrontEndConfig) FrontEndMACs(n int) int64 {
	nf := int64(c.NumFrames(n))
	fl := int64(c.FrameLen())
	nFFT := int64(nextPow2(int(fl)))
	log2 := int64(math.Log2(float64(nFFT)))
	nBins := nFFT/2 + 1
	nMels := int64(c.NumFeatures + 2)
	perFrame := fl + // window multiply
		5*nFFT*log2 + // FFT butterflies
		nMels*nBins/2 + // filterbank (triangles touch ~half the bins)
		nMels*int64(c.NumFeatures) // DCT
	return nf * perFrame
}
