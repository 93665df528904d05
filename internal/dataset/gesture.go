// Package dataset provides the synthetic workloads for the two SolarML
// applications: digit gestures sensed by the 3×3 solar-cell grid, and
// keyword-spotting audio for the on-board microphone. Both generators are
// deterministic given a seed and are built so that classification accuracy
// genuinely depends on the sensing parameters (channels, rate, quantization
// for gestures; stripe, duration, feature count for audio) — the property
// the joint eNAS search exploits.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"solarml/internal/dsp"
	"solarml/internal/quant"
	"solarml/internal/solar"
	"solarml/internal/tensor"
)

// MasterRateHz is the full-fidelity gesture capture rate; sensing configs
// with r < MasterRateHz are derived from it by resampling, exactly as the
// platform would sample more slowly.
const MasterRateHz = 200

// GestureDurationS is the nominal gesture length in seconds.
const GestureDurationS = 1.5

// NumGestureClasses is the digit vocabulary size.
const NumGestureClasses = 10

// gestureSteps is the master-rate sample count per gesture.
const gestureSteps = int(MasterRateHz * GestureDurationS)

// digitStrokes defines each digit as a polyline over the unit square
// (x right, y down), traced by the hand above the 3×3 sensing grid.
var digitStrokes = [NumGestureClasses][][2]float64{
	0: {{0.5, 0.05}, {0.1, 0.3}, {0.1, 0.7}, {0.5, 0.95}, {0.9, 0.7}, {0.9, 0.3}, {0.5, 0.05}},
	1: {{0.5, 0.05}, {0.5, 0.95}},
	2: {{0.1, 0.2}, {0.5, 0.05}, {0.9, 0.25}, {0.3, 0.6}, {0.1, 0.95}, {0.9, 0.95}},
	3: {{0.1, 0.1}, {0.8, 0.15}, {0.4, 0.5}, {0.85, 0.75}, {0.1, 0.9}},
	4: {{0.7, 0.95}, {0.7, 0.05}, {0.1, 0.65}, {0.9, 0.65}},
	5: {{0.9, 0.05}, {0.15, 0.1}, {0.15, 0.5}, {0.8, 0.55}, {0.8, 0.9}, {0.1, 0.95}},
	6: {{0.8, 0.05}, {0.2, 0.45}, {0.15, 0.85}, {0.6, 0.95}, {0.8, 0.7}, {0.2, 0.6}},
	7: {{0.1, 0.05}, {0.9, 0.1}, {0.4, 0.95}},
	8: {{0.5, 0.5}, {0.15, 0.25}, {0.5, 0.05}, {0.85, 0.25}, {0.5, 0.5}, {0.15, 0.75}, {0.5, 0.95}, {0.85, 0.75}, {0.5, 0.5}},
	9: {{0.85, 0.35}, {0.5, 0.05}, {0.15, 0.3}, {0.5, 0.55}, {0.85, 0.35}, {0.75, 0.95}},
}

// GestureRaw is one gesture captured at master fidelity: per-sensing-cell
// shading traces (9 × gestureSteps) plus the digit label.
type GestureRaw struct {
	Shades [][]float64
	Label  int
}

// GestureSet is a collection of raw gestures that can be materialized under
// any sensing configuration.
type GestureSet struct {
	Samples []GestureRaw
	Lux     float64
	// NoiseVolts is the electronic noise floor of the sensing divider
	// (thermal + ADC). The sense voltage scales with illuminance while
	// this floor does not, so dim light degrades the SNR — the mechanism
	// behind the lux-robustness experiment.
	NoiseVolts float64
	array      *solar.Array
}

// strokePoint returns the hand position at progress u ∈ [0,1] along the
// digit's polyline, with arc-length parameterization.
func strokePoint(stroke [][2]float64, u float64) (float64, float64) {
	if u <= 0 {
		return stroke[0][0], stroke[0][1]
	}
	if u >= 1 {
		last := stroke[len(stroke)-1]
		return last[0], last[1]
	}
	total := 0.0
	segs := make([]float64, len(stroke)-1)
	for i := 0; i < len(stroke)-1; i++ {
		dx := stroke[i+1][0] - stroke[i][0]
		dy := stroke[i+1][1] - stroke[i][1]
		segs[i] = math.Hypot(dx, dy)
		total += segs[i]
	}
	target := u * total
	for i, l := range segs {
		if target <= l || i == len(segs)-1 {
			f := 0.0
			if l > 0 {
				f = target / l
			}
			return stroke[i][0] + f*(stroke[i+1][0]-stroke[i][0]),
				stroke[i][1] + f*(stroke[i+1][1]-stroke[i][1])
		}
		target -= l
	}
	last := stroke[len(stroke)-1]
	return last[0], last[1]
}

// cellCenter returns the unit-square center of sensing cell i (3×3 grid,
// row-major).
func cellCenter(i int) (float64, float64) {
	return (float64(i%3) + 0.5) / 3, (float64(i/3) + 0.5) / 3
}

// BuildGestureSet synthesizes n gestures (balanced across digits) at the
// given illuminance. Variability: per-sample start/end dwell, speed warp,
// spatial offset and scale, hand-size jitter, and shading noise.
func BuildGestureSet(n int, lux float64, seed int64) *GestureSet {
	rng := rand.New(rand.NewSource(seed))
	set := &GestureSet{Lux: lux, NoiseVolts: 0.3e-3, array: solar.NewArray()}
	for i := 0; i < n; i++ {
		label := i % NumGestureClasses
		set.Samples = append(set.Samples, synthGesture(rng, label))
	}
	return set
}

// synthGesture renders one digit into per-cell shading traces.
func synthGesture(rng *rand.Rand, label int) GestureRaw {
	stroke := digitStrokes[label]
	// Per-sample geometric jitter: users draw digits at varying position,
	// size, hand height (blob width) and speed, under flickering ambient
	// light, with per-cell sensor noise.
	offX, offY := rng.NormFloat64()*0.09, rng.NormFloat64()*0.09
	scale := 0.8 + rng.Float64()*0.4
	handSigma := 0.15 + rng.Float64()*0.12
	speedWarp := 0.3 * rng.NormFloat64()
	flickerPhase := rng.Float64() * 2 * math.Pi
	flickerAmp := 0.03 + rng.Float64()*0.05
	shades := make([][]float64, 9)
	for c := range shades {
		shades[c] = make([]float64, gestureSteps)
	}
	for t := 0; t < gestureSteps; t++ {
		u := float64(t) / float64(gestureSteps-1)
		// Smooth monotone time warp.
		uw := u + speedWarp*u*(1-u)
		hx, hy := strokePoint(stroke, uw)
		hx = 0.5 + (hx-0.5)*scale + offX
		hy = 0.5 + (hy-0.5)*scale + offY
		// Ambient flicker shades all cells coherently.
		flicker := flickerAmp * math.Sin(2*math.Pi*3*u+flickerPhase)
		for c := 0; c < 9; c++ {
			cx, cy := cellCenter(c)
			d2 := (hx-cx)*(hx-cx) + (hy-cy)*(hy-cy)
			shade := math.Exp(-d2 / (2 * handSigma * handSigma))
			shade += flicker + rng.NormFloat64()*0.05
			if shade < 0 {
				shade = 0
			}
			if shade > 1 {
				shade = 1
			}
			shades[c][t] = shade
		}
	}
	return GestureRaw{Shades: shades, Label: label}
}

// channelOrder lists sensing cells by decreasing spatial informativeness;
// a configuration with n channels uses the first n.
var channelOrder = [9]int{4, 0, 8, 2, 6, 1, 7, 3, 5}

// GestureConfig is the sensing side of the gesture search space (Table II).
type GestureConfig struct {
	// Channels n ∈ [1, 9].
	Channels int
	// RateHz r ∈ [10, 200].
	RateHz int
	// Quant combines the bit-resolution b and depth q dimensions.
	Quant quant.Config
}

// ChannelBounds is the Table II range for n.
func ChannelBounds() (int, int) { return 1, 9 }

// RateBounds is the Table II range for r.
func RateBounds() (int, int) { return 10, 200 }

// Validate checks the configuration against Table II.
func (c GestureConfig) Validate() error {
	if lo, hi := ChannelBounds(); c.Channels < lo || c.Channels > hi {
		return fmt.Errorf("dataset: channels %d outside [%d,%d]", c.Channels, lo, hi)
	}
	if lo, hi := RateBounds(); c.RateHz < lo || c.RateHz > hi {
		return fmt.Errorf("dataset: rate %d outside [%d,%d]", c.RateHz, lo, hi)
	}
	return c.Quant.Validate()
}

// InputShape returns the per-sample network input shape (1, n, T) for the
// configuration.
func (c GestureConfig) InputShape() []int {
	return []int{1, c.Channels, c.Samples()}
}

// Samples returns the time steps per channel at the configured rate.
func (c GestureConfig) Samples() int {
	return int(float64(c.RateHz) * GestureDurationS)
}

// Materialize renders the whole set under a sensing configuration: per-cell
// shading → divider voltage at the set's illuminance → resample to r →
// normalize → quantize. Returns network inputs (N, 1, n, T) and labels.
func (s *GestureSet) Materialize(cfg GestureConfig) (*tensor.Tensor, []int, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	n := len(s.Samples)
	if n == 0 {
		return nil, nil, fmt.Errorf("dataset: cannot materialize an empty gesture set")
	}
	steps := cfg.Samples()
	inputs := tensor.New(n, 1, cfg.Channels, steps)
	labels := make([]int, n)
	vRef := s.array.Cell.SenseVoltage(s.Lux, 0, 1500)
	for i, raw := range s.Samples {
		labels[i] = raw.Label
		// Electronic noise is regenerated deterministically per sample so
		// Materialize stays reproducible for a given set.
		noiseRng := rand.New(rand.NewSource(int64(i)*2654435761 + 12345))
		for ch := 0; ch < cfg.Channels; ch++ {
			cell := channelOrder[ch]
			// Sense voltage trace at master rate, with the divider's
			// lux-independent electronic noise floor.
			volts := make([]float64, gestureSteps)
			for t, shade := range raw.Shades[cell] {
				volts[t] = s.array.Cell.SenseVoltage(s.Lux, shade, 1500) +
					noiseRng.NormFloat64()*s.NoiseVolts
			}
			// Resample to the configured rate.
			trace := dsp.Resample(volts, steps)
			// Normalize to [-1, 1] around the unshaded baseline.
			for t := range trace {
				v := 2*trace[t]/vRef - 1
				if v > 1 {
					v = 1
				}
				if v < -1 {
					v = -1
				}
				trace[t] = cfg.Quant.Apply(v)
			}
			base := ((i*1+0)*cfg.Channels + ch) * steps
			copy(inputs.Data[base:base+steps], trace)
		}
	}
	return inputs, labels, nil
}

// SplitSizes returns the train and test sizes that Split(testEvery) yields
// on a set of n samples whose labels cycle through classes in order, as
// BuildGestureSet and BuildKWSSet build them. Callers use it to reject a
// dataset size before building anything.
func SplitSizes(n, classes, testEvery int) (train, test int) {
	if testEvery > 0 {
		for c := 0; c < classes; c++ {
			count := n / classes
			if c < n%classes {
				count++
			}
			test += count / testEvery
		}
	}
	return n - test, test
}

// Split partitions the set into train and test subsets, stratified by
// class: every testEvery-th occurrence of each digit goes to the test set,
// so both subsets keep the full class vocabulary.
func (s *GestureSet) Split(testEvery int) (train, test *GestureSet) {
	train = &GestureSet{Lux: s.Lux, NoiseVolts: s.NoiseVolts, array: s.array}
	test = &GestureSet{Lux: s.Lux, NoiseVolts: s.NoiseVolts, array: s.array}
	seen := make(map[int]int)
	for _, raw := range s.Samples {
		seen[raw.Label]++
		if testEvery > 0 && seen[raw.Label]%testEvery == 0 {
			test.Samples = append(test.Samples, raw)
		} else {
			train.Samples = append(train.Samples, raw)
		}
	}
	return train, test
}
