package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"solarml/internal/dsp"
	"solarml/internal/tensor"
)

// AudioRateHz is the microphone capture rate of the synthetic KWS corpus.
const AudioRateHz = 8000

// AudioDurationS is the clip length in seconds.
const AudioDurationS = 1.0

// NumKWSClasses is the keyword vocabulary size.
const NumKWSClasses = 10

// keywordBase defines the steady formant pair of a keyword family. The ten
// keywords are five families × two variants: within a family the two
// variants share the steady vowel and differ only by a brief mid-word
// formant transition, so telling them apart needs fine *temporal*
// resolution (small window stripe s). The families themselves are placed
// close together in formant space, so telling neighbouring families apart
// needs fine *spectral* resolution (more cepstral features f). Coarse
// front-ends therefore genuinely lose accuracy — the coupling the joint
// eNAS search exploits.
type keywordBase struct {
	f1, f2 float64
	noise  float64 // fricative noise fraction of the steady part
}

var keywordBases = [NumKWSClasses / 2]keywordBase{
	{430, 1250, 0},
	{450, 1370, 0},   // ≈120 Hz from family 0: merged by wide mel filters
	{470, 1490, 0.2}, // ≈120 Hz from family 1
	{400, 1850, 0},
	{380, 1970, 0.3}, // ≈120 Hz from family 3
}

// transitionDurS is the length of the variant-1 formant glide; it spans
// only a few analysis frames, so long stripes blur it away.
const transitionDurS = 0.08

// KWSSet is a collection of synthetic keyword clips.
type KWSSet struct {
	Audio  [][]float64
	Labels []int
}

// BuildKWSSet synthesizes n keyword clips (balanced across the vocabulary).
// Variability: pitch jitter, formant perturbation, duration warp, amplitude
// envelope jitter, and additive background noise.
func BuildKWSSet(n int, seed int64) *KWSSet {
	rng := rand.New(rand.NewSource(seed))
	set := &KWSSet{}
	for i := 0; i < n; i++ {
		label := i % NumKWSClasses
		set.Audio = append(set.Audio, synthKeyword(rng, label))
		set.Labels = append(set.Labels, label)
	}
	return set
}

// synthKeyword renders one keyword clip. label = family*2 + variant;
// variant 1 inserts a brief formant glide in the middle of the word.
func synthKeyword(rng *rand.Rand, label int) []float64 {
	base := keywordBases[label/2]
	variant := label % 2
	total := int(AudioRateHz * AudioDurationS)
	sig := make([]float64, total)
	pitch := 110 + rng.Float64()*60 // speaker F0
	formantJitter := 1 + rng.NormFloat64()*0.015
	speechLen := int(float64(total) * (0.5 + rng.Float64()*0.2))
	start := rng.Intn(total - speechLen)
	transLen := int(transitionDurS * AudioRateHz)
	transStart := speechLen/2 - transLen/2
	phase1, phase2, phasePitch := 0.0, 0.0, 0.0
	for j := 0; j < speechLen; j++ {
		u := float64(j) / float64(speechLen)
		f1 := base.f1 * formantJitter
		f2 := base.f2 * formantJitter
		if variant == 1 && j >= transStart && j < transStart+transLen {
			// Brief glide: F2 sweeps up 25% and back.
			v := float64(j-transStart) / float64(transLen)
			f2 *= 1 + 0.25*math.Sin(math.Pi*v)
		}
		// Amplitude envelope: raised cosine over the word.
		env := 0.5 - 0.5*math.Cos(2*math.Pi*math.Min(u*1.05, 1))
		phase1 += 2 * math.Pi * f1 / AudioRateHz
		phase2 += 2 * math.Pi * f2 / AudioRateHz
		phasePitch += 2 * math.Pi * pitch / AudioRateHz
		voiced := (0.6*math.Sin(phase1) + 0.4*math.Sin(phase2)) *
			(0.7 + 0.3*math.Sin(phasePitch))
		noise := rng.NormFloat64()
		sig[start+j] += env * ((1-base.noise)*voiced + base.noise*noise*0.5)
	}
	// Background noise floor.
	for i := range sig {
		sig[i] = sig[i]*0.5 + rng.NormFloat64()*0.01
	}
	return sig
}

// Materialize extracts features under a front-end configuration and returns
// network inputs (N, 1, frames, features) with per-sample standardization,
// plus the labels.
func (s *KWSSet) Materialize(cfg dsp.FrontEndConfig) (*tensor.Tensor, []int, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	n := len(s.Audio)
	if n == 0 {
		return nil, nil, fmt.Errorf("dataset: cannot materialize an empty KWS set")
	}
	frames := cfg.NumFrames(int(AudioRateHz * AudioDurationS))
	feats := cfg.NumFeatures
	inputs := tensor.New(n, 1, frames, feats)
	for i, clip := range s.Audio {
		mat := cfg.Extract(clip)
		// Per-sample standardization.
		var mean, std float64
		cnt := 0
		for _, row := range mat {
			for _, v := range row {
				mean += v
				cnt++
			}
		}
		mean /= float64(cnt)
		for _, row := range mat {
			for _, v := range row {
				d := v - mean
				std += d * d
			}
		}
		std = math.Sqrt(std / float64(cnt))
		if std == 0 {
			std = 1
		}
		for fi := 0; fi < frames && fi < len(mat); fi++ {
			for fj := 0; fj < feats; fj++ {
				inputs.Set((mat[fi][fj]-mean)/std, i, 0, fi, fj)
			}
		}
	}
	return inputs, append([]int(nil), s.Labels...), nil
}

// Split partitions the set into train and test subsets, stratified by
// class: every testEvery-th occurrence of each keyword goes to the test
// set, so both subsets keep the full vocabulary.
func (s *KWSSet) Split(testEvery int) (train, test *KWSSet) {
	train, test = &KWSSet{}, &KWSSet{}
	seen := make(map[int]int)
	for i := range s.Audio {
		seen[s.Labels[i]]++
		if testEvery > 0 && seen[s.Labels[i]]%testEvery == 0 {
			test.Audio = append(test.Audio, s.Audio[i])
			test.Labels = append(test.Labels, s.Labels[i])
		} else {
			train.Audio = append(train.Audio, s.Audio[i])
			train.Labels = append(train.Labels, s.Labels[i])
		}
	}
	return train, test
}
