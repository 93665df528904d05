package nas

import (
	"math/rand"
	"slices"

	"solarml/internal/dataset"
	"solarml/internal/dsp"
	"solarml/internal/nn"
	"solarml/internal/quant"
)

// Space is the joint search space: Table II sensing ranges plus a μNAS-style
// architecture space (conv/pool/norm blocks followed by dense layers).
type Space struct {
	Task Task
	// MaxBlocks bounds the convolutional block count.
	MaxBlocks int
	// MaxDense bounds the trailing dense layers (excluding the head).
	MaxDense int
	// ChannelChoices are the allowed conv widths.
	ChannelChoices []int
	// DenseChoices are the allowed dense widths.
	DenseChoices []int
	// KernelChoices are the allowed conv kernels.
	KernelChoices []int
	// SensingEvery (R in Algorithm 1) is carried here for convenience.
	SensingEvery int
}

// GestureSpace returns the digit-recognition search space.
func GestureSpace() *Space {
	return &Space{
		Task:           TaskGesture,
		MaxBlocks:      3,
		MaxDense:       2,
		ChannelChoices: []int{2, 4, 6, 8, 12, 16, 24},
		DenseChoices:   []int{8, 16, 24, 32, 48, 64},
		KernelChoices:  []int{3, 5},
		SensingEvery:   20,
	}
}

// KWSSpace returns the keyword-spotting search space.
func KWSSpace() *Space {
	return &Space{
		Task:           TaskKWS,
		MaxBlocks:      4,
		MaxDense:       2,
		ChannelChoices: []int{2, 4, 6, 8, 12, 16, 24, 32},
		DenseChoices:   []int{8, 16, 24, 32, 48, 64},
		KernelChoices:  []int{3, 5},
		SensingEvery:   20,
	}
}

// RandomSensing draws a uniform sensing configuration from Table II into
// c's sensing half; rebind c before reading its binding.
func (s *Space) RandomSensing(rng *rand.Rand, c *Candidate) {
	switch s.Task {
	case TaskGesture:
		cLo, cHi := dataset.ChannelBounds()
		rLo, rHi := dataset.RateBounds()
		res := quant.Int
		qLo, qHi := res.Bounds()
		if rng.Intn(2) == 1 {
			res = quant.Float
			qLo, qHi = res.Bounds()
		}
		c.Gesture = dataset.GestureConfig{
			Channels: cLo + rng.Intn(cHi-cLo+1),
			RateHz:   rLo + rng.Intn(rHi-rLo+1),
			Quant:    quant.Config{Res: res, Bits: qLo + rng.Intn(qHi-qLo+1)},
		}
	case TaskKWS:
		sLo, sHi := dsp.StripeBounds()
		dLo, dHi := dsp.DurationBounds()
		fLo, fHi := dsp.FeatureBounds()
		c.Audio = dsp.FrontEndConfig{
			SampleRate:  dataset.AudioRateHz,
			StripeMS:    sLo + rng.Intn(sHi-sLo+1),
			DurationMS:  dLo + rng.Intn(dHi-dLo+1),
			NumFeatures: fLo + rng.Intn(fHi-fLo+1),
		}
	}
}

// randomArchBody draws a random architecture body into buf's storage,
// allocating only when buf cannot hold the largest body the space draws.
// The caller must Rebind and validity-check the result.
func (s *Space) randomArchBody(rng *rand.Rand, buf []nn.LayerSpec) []nn.LayerSpec {
	// At most four layers per block (conv, norm, ReLU, pool) and two per
	// dense layer (dense, ReLU).
	body := buf[:0]
	if n := 4*s.MaxBlocks + 2*s.MaxDense; cap(body) < n {
		body = make([]nn.LayerSpec, 0, n)
	}
	blocks := 1 + rng.Intn(s.MaxBlocks)
	for b := 0; b < blocks; b++ {
		k := s.KernelChoices[rng.Intn(len(s.KernelChoices))]
		if rng.Float64() < 0.25 {
			body = append(body, nn.LayerSpec{
				Kind: nn.KindDWConv, K: k, Stride: 1, Pad: k / 2,
			})
		} else {
			body = append(body, nn.LayerSpec{
				Kind: nn.KindConv, Out: s.ChannelChoices[rng.Intn(len(s.ChannelChoices))],
				K: k, Stride: 1, Pad: k / 2,
			})
		}
		if rng.Float64() < 0.5 {
			body = append(body, nn.LayerSpec{Kind: nn.KindNorm})
		}
		body = append(body, nn.LayerSpec{Kind: nn.KindReLU})
		if rng.Float64() < 0.7 {
			kind := nn.KindMaxPool
			if rng.Float64() < 0.4 {
				kind = nn.KindAvgPool
			}
			body = append(body, nn.LayerSpec{Kind: kind, K: 2})
		}
	}
	dense := rng.Intn(s.MaxDense + 1)
	for d := 0; d < dense; d++ {
		body = append(body, nn.LayerSpec{
			Kind: nn.KindDense, Out: s.DenseChoices[rng.Intn(len(s.DenseChoices))],
		})
		body = append(body, nn.LayerSpec{Kind: nn.KindReLU})
	}
	return body
}

// RandomCandidate draws random sensing parameters and a random architecture
// until the pair materializes (pooling fits, shapes stay positive). It
// returns the accepted draw bound, in storage of its own (see Candidate).
func (s *Space) RandomCandidate(rng *rand.Rand) *Candidate {
	return s.randomCandidate(rng, nil, nil)
}

// RandomCandidateWithin draws exactly as RandomCandidate does, but returns
// nil when the accepted draw breaks ct's static limits (see
// Constraints.Admits). A screened draw is never copied out of its scratch,
// so it costs no storage.
func (s *Space) RandomCandidateWithin(rng *rand.Rand, ct Constraints) *Candidate {
	return s.randomCandidate(rng, nil, &ct)
}

// RandomArch draws exactly as RandomCandidate does, then puts the accepted
// architecture under the sensing configuration of sensing instead of the
// drawn one — the candidate source of the fixed-sensing baselines. It
// returns the candidate bound, or nil when the architecture does not
// materialize under that configuration. sensing is read, not modified.
func (s *Space) RandomArch(rng *rand.Rand, sensing *Candidate) *Candidate {
	return s.randomCandidate(rng, sensing, nil)
}

// scratchBody is the body capacity RandomCandidate draws into on its stack;
// a space whose largest body is longer draws on the heap instead.
const scratchBody = 32

// randomCandidate is RandomCandidate, RandomArch when sensing is non-nil,
// or RandomCandidateWithin when ct is. Every draw lands in stack scratch,
// so a rejected draw costs no storage; only the accepted one is copied
// out.
func (s *Space) randomCandidate(rng *rand.Rand, sensing *Candidate, ct *Constraints) *Candidate {
	var body [scratchBody]nn.LayerSpec
	arch := nn.Arch{Classes: s.Task.Classes()}
	draw := Candidate{Task: s.Task, Arch: &arch}
	arch.Input = draw.in[:]
	// A rejected draw is overwritten in place: RandomSensing sets the
	// task's whole sensing configuration and the body is redrawn.
	for {
		s.RandomSensing(rng, &draw)
		arch.Body = s.randomArchBody(rng, body[:0])
		if draw.Rebind() == nil {
			break
		}
	}
	if ct != nil && !ct.Admits(&draw) {
		return nil
	}
	if sensing == nil {
		c := draw.withBody(arch.Body)
		c.bind = draw.bind // the copy has the same fields, so the same binding
		return c
	}
	c := sensing.withBody(arch.Body)
	if c.Rebind() != nil {
		return nil
	}
	return c
}

// MutateArch applies one μNAS-style architecture morphism: widen/narrow a
// layer, change a kernel, insert or delete a layer. Returns a valid mutant
// (retrying internally) that differs from the parent.
func (s *Space) MutateArch(rng *rand.Rand, parent *Candidate) *Candidate {
	pfp := parent.Fingerprint()
	c := parent.Clone()
	for tries := 0; tries < 64; tries++ {
		// Every try morphs a fresh copy of the parent's body; the sensing
		// half, and so the input shape, is the parent's throughout.
		body := append(c.Arch.Body[:0], parent.Arch.Body...)
		c.Arch.Body = body
		op := rng.Intn(4)
		switch {
		case op == 0 && len(body) > 0: // widen/narrow
			i := rng.Intn(len(body))
			switch body[i].Kind {
			case nn.KindConv:
				body[i].Out = s.ChannelChoices[rng.Intn(len(s.ChannelChoices))]
			case nn.KindDense:
				body[i].Out = s.DenseChoices[rng.Intn(len(s.DenseChoices))]
			default:
				continue
			}
		case op == 1 && len(body) > 0: // change kernel
			i := rng.Intn(len(body))
			if body[i].Kind != nn.KindConv && body[i].Kind != nn.KindDWConv {
				continue
			}
			k := s.KernelChoices[rng.Intn(len(s.KernelChoices))]
			body[i].K, body[i].Pad = k, k/2
		case op == 2: // insert a layer
			i := rng.Intn(len(body) + 1)
			var ins nn.LayerSpec
			switch rng.Intn(4) {
			case 0:
				k := s.KernelChoices[rng.Intn(len(s.KernelChoices))]
				ins = nn.LayerSpec{Kind: nn.KindConv, Out: s.ChannelChoices[rng.Intn(len(s.ChannelChoices))], K: k, Stride: 1, Pad: k / 2}
			case 1:
				ins = nn.LayerSpec{Kind: nn.KindNorm}
			case 2:
				ins = nn.LayerSpec{Kind: nn.KindMaxPool, K: 2}
			default:
				ins = nn.LayerSpec{Kind: nn.KindReLU}
			}
			c.Arch.Body = slices.Insert(body, i, ins)
		case op == 3 && len(body) > 1: // delete a layer
			i := rng.Intn(len(body))
			body = append(body[:i], body[i+1:]...)
			c.Arch.Body = body
		default:
			continue
		}
		if c.Rebind() == nil && c.Fingerprint() != pfp {
			return c
		}
	}
	// Mutation space exhausted around this parent; fall back to a fresh
	// architecture with the parent's sensing parameters.
	c.Arch.Body = s.randomArchBody(rng, c.Arch.Body)
	for c.Rebind() != nil {
		c.Arch.Body = s.randomArchBody(rng, c.Arch.Body)
	}
	return c
}

// GridNeighbors enumerates the full one-step sensing neighbourhood of the
// candidate (the local grid of Algorithm 1's GRIDMUTATE), keeping only
// valid pairs.
func (s *Space) GridNeighbors(parent *Candidate) []*Candidate {
	out := make([]*Candidate, 0, 7) // the gesture neighbourhood's size; KWS has 6
	pfp := parent.Fingerprint()
	add := func(c *Candidate) {
		if c.Validate() == nil && c.Fingerprint() != pfp {
			out = append(out, c)
		}
	}
	switch s.Task {
	case TaskGesture:
		for _, dn := range []int{-1, 1} {
			c := parent.Clone()
			c.Gesture.Channels += dn
			add(c)
		}
		for _, dr := range []int{-2, 2} {
			c := parent.Clone()
			c.Gesture.RateHz += dr
			add(c)
		}
		for _, q := range quantNeighbors(parent.Gesture.Quant) {
			c := parent.Clone()
			c.Gesture.Quant = q
			add(c)
		}
	case TaskKWS:
		for _, d := range []int{-1, 1} {
			c := parent.Clone()
			c.Audio.StripeMS += d
			add(c)
			c = parent.Clone()
			c.Audio.DurationMS += d
			add(c)
			c = parent.Clone()
			c.Audio.NumFeatures += d
			add(c)
		}
	}
	return out
}
