// Package nas defines the joint sensing+architecture search space of eNAS
// (Table II), candidate encoding and mutation morphisms, the memory/MAC/
// accuracy constraints shared by all searches, and the two candidate
// evaluators: TrainEvaluator (really trains each candidate with internal/nn)
// and SurrogateEvaluator (a calibrated analytic accuracy model for
// paper-scale sweeps).
package nas

import (
	"fmt"
	"slices"
	"strconv"

	"solarml/internal/dataset"
	"solarml/internal/dsp"
	"solarml/internal/nn"
	"solarml/internal/quant"
)

// Task selects the application.
type Task int

const (
	// TaskGesture is solar-cell digit recognition.
	TaskGesture Task = iota
	// TaskKWS is microphone keyword spotting.
	TaskKWS
)

// String returns the task name.
func (t Task) String() string {
	if t == TaskGesture {
		return "gesture"
	}
	return "kws"
}

// Classes returns the label count of the task.
func (t Task) Classes() int {
	if t == TaskGesture {
		return dataset.NumGestureClasses
	}
	return dataset.NumKWSClasses
}

// Candidate is one point of the joint search space: sensing parameters plus
// a network architecture whose input shape is derived from the sensing side.
//
// A candidate carries a binding: the architecture analysis and fingerprint
// computed by its last successful Rebind, Validate or Analyze, which
// Fingerprint, Constraints.CheckStatic and SurrogateEvaluator.Evaluate read
// instead of walking the architecture and hashing again. The binding is not
// tracked against the exported fields, so after writing any of them (the
// sensing parameters, Task, or Arch and its Body) call Rebind, Validate or
// Analyze before reading it. Clone returns an unbound copy; an unbound
// candidate (a fresh literal, or one decoded by ReadCandidate) is analyzed
// and hashed on every read. Only rebinding writes the binding, so
// goroutines may read one bound candidate concurrently.
//
// The candidates RandomCandidate, Clone, MutateArch and GridNeighbors
// return own their storage: the candidate, its Arch, and the Arch's input
// shape are one allocation, and the body a second one with a spare slot
// for a MutateArch insert.
type Candidate struct {
	Task Task
	// Gesture holds the sensing parameters when Task == TaskGesture.
	Gesture dataset.GestureConfig
	// Audio holds the front-end parameters when Task == TaskKWS.
	Audio dsp.FrontEndConfig
	// Arch is the network body; its Input is kept in sync with the
	// sensing configuration by Rebind.
	Arch *nn.Arch

	bind binding
	// in backs Arch.Input when the candidate owns its storage; rebind then
	// overwrites the shape in place instead of allocating a new one.
	in [3]int
}

// candidateBlock lays a candidate out with its architecture, so that one
// allocation holds the candidate, its Arch, and (in Candidate.in) the
// Arch's input shape.
type candidateBlock struct {
	Candidate
	arch nn.Arch
}

// binding is what a successful rebind computed from the exported fields.
type binding struct {
	an    nn.Analysis
	fp    uint64
	bound bool
}

// Clone returns an unbound deep copy: it is about to be mutated. The copy
// owns its storage (see Candidate).
func (c *Candidate) Clone() *Candidate {
	return c.withBody(c.Arch.Body)
}

// withBody returns an unbound copy of c's sensing half, classes and input
// shape over a copy of body, in one block plus a body of len(body)+1
// slots. It reads c and body without retaining them, so c may live on the
// caller's stack.
func (c *Candidate) withBody(body []nn.LayerSpec) *Candidate {
	b := &candidateBlock{arch: nn.Arch{Classes: c.Arch.Classes}}
	out := &b.Candidate
	out.Task, out.Gesture, out.Audio, out.Arch = c.Task, c.Gesture, c.Audio, &b.arch
	if in := c.Arch.Input; in != nil && len(in) <= len(out.in) {
		b.arch.Input = out.in[:len(in)]
		copy(b.arch.Input, in)
	} else {
		b.arch.Input = slices.Clone(in)
	}
	if body != nil {
		b.arch.Body = make([]nn.LayerSpec, len(body), len(body)+1)
		copy(b.arch.Body, body)
	}
	return out
}

// ownsInput reports whether Arch.Input is backed by the candidate's own
// shape storage, which rebind may overwrite in place.
func (c *Candidate) ownsInput() bool {
	in := c.Arch.Input
	return cap(in) == len(c.in) && &in[:1][0] == &c.in[0]
}

// InputShape returns the network input implied by the sensing parameters.
func (c *Candidate) InputShape() []int {
	in := c.inputShape()
	return in[:]
}

// inputShape is InputShape as a value, which rebind compares with the
// architecture's input without allocating.
func (c *Candidate) inputShape() [3]int {
	switch c.Task {
	case TaskGesture:
		return [3]int(c.Gesture.InputShape())
	default:
		frames := c.Audio.NumFrames(int(dataset.AudioRateHz * dataset.AudioDurationS))
		return [3]int{1, frames, c.Audio.NumFeatures}
	}
}

// Rebind updates the architecture's input shape from the sensing
// configuration and reports whether the architecture still materializes.
// On success it binds the candidate's analysis and fingerprint.
func (c *Candidate) Rebind() error {
	_, err := c.rebind()
	return err
}

// rebind is Rebind returning the architecture analysis.
func (c *Candidate) rebind() (nn.Analysis, error) {
	if in := c.inputShape(); !slices.Equal(c.Arch.Input, in[:]) {
		if a := c.Arch; c.ownsInput() {
			// Through a, this reslice is a self-assignment to the escape
			// analysis, so a candidate on the stack stays there.
			a.Input = a.Input[:len(in)]
			copy(a.Input, in[:])
		} else {
			c.Arch.Input = slices.Clone(in[:])
		}
	}
	c.Arch.Classes = c.Task.Classes()
	an, err := c.Arch.Analyze()
	if err != nil {
		c.bind = binding{}
		return an, err
	}
	c.bind = binding{an: an, fp: c.fingerprint(), bound: true}
	return an, nil
}

// Validate checks both halves of the candidate.
func (c *Candidate) Validate() error {
	_, err := c.Analyze()
	return err
}

// Analyze validates both halves of the candidate, rebinding the
// architecture to the sensing configuration, and returns the architecture
// analysis (parameters, MACs by kind, activation peaks).
func (c *Candidate) Analyze() (nn.Analysis, error) {
	if err := c.validateSensing(); err != nil {
		c.bind = binding{}
		return nn.Analysis{}, err
	}
	return c.rebind()
}

// validateSensing checks the sensing half against the task's ranges.
func (c *Candidate) validateSensing() error {
	switch c.Task {
	case TaskGesture:
		return c.Gesture.Validate()
	case TaskKWS:
		return c.Audio.Validate()
	}
	return fmt.Errorf("nas: unknown task %d", c.Task)
}

// archAnalysis returns the bound architecture analysis, or analyzes the
// architecture as it stands when the candidate is unbound. It never writes
// the candidate.
func (c *Candidate) archAnalysis() (nn.Analysis, error) {
	if c.bind.bound {
		return c.bind.an, nil
	}
	return c.Arch.Analyze()
}

// SensingString renders the sensing half compactly.
func (c *Candidate) SensingString() string {
	if c.Task == TaskGesture {
		return fmt.Sprintf("n=%d r=%dHz %s", c.Gesture.Channels, c.Gesture.RateHz, c.Gesture.Quant)
	}
	return fmt.Sprintf("s=%dms d=%dms f=%d", c.Audio.StripeMS, c.Audio.DurationMS, c.Audio.NumFeatures)
}

// String renders the whole candidate.
func (c *Candidate) String() string {
	return fmt.Sprintf("[%s | %s]", c.SensingString(), c.Arch)
}

// Fingerprint returns a stable hash of the candidate configuration, used
// for deterministic surrogate noise and deduplication: 64-bit FNV-1a over
// the decimal fields, "|"-separated for the sensing half and ","/";"-framed
// per layer. A bound candidate returns the hash its rebind computed; an
// unbound one is hashed on every call. It allocates nothing.
func (c *Candidate) Fingerprint() uint64 {
	if c.bind.bound {
		return c.bind.fp
	}
	return c.fingerprint()
}

// fingerprint hashes the candidate's fields as they stand.
func (c *Candidate) fingerprint() uint64 {
	h := fingerprint{sum: fnvOffset64}
	h.field(int64(c.Task), '|')
	h.field(int64(c.Gesture.Channels), '|')
	h.field(int64(c.Gesture.RateHz), '|')
	h.field(int64(c.Gesture.Quant.Res), '|')
	h.field(int64(c.Gesture.Quant.Bits), '|')
	h.field(int64(c.Audio.StripeMS), '|')
	h.field(int64(c.Audio.DurationMS), '|')
	h.field(int64(c.Audio.NumFeatures), '|')
	for _, s := range c.Arch.Body {
		h.field(int64(s.Kind), ',')
		h.field(int64(s.Out), ',')
		h.field(int64(s.K), ',')
		h.field(int64(s.Stride), ',')
		h.field(int64(s.Pad), ';')
	}
	return h.sum
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fingerprint is a running FNV-1a hash over decimal integer fields.
type fingerprint struct{ sum uint64 }

// field hashes v in decimal followed by the separator sep. Nearly every
// field of a search-space candidate lies in [0, 99], so those are hashed
// digit by digit without formatting.
func (f *fingerprint) field(v int64, sep byte) {
	switch {
	case v >= 0 && v < 10:
		f.add('0' + byte(v))
	case v >= 10 && v < 100:
		f.add('0' + byte(v/10))
		f.add('0' + byte(v%10))
	default:
		var buf [24]byte
		for _, b := range strconv.AppendInt(buf[:0], v, 10) {
			f.add(b)
		}
	}
	f.add(sep)
}

// add hashes one byte.
func (f *fingerprint) add(b byte) {
	f.sum ^= uint64(b)
	f.sum *= fnvPrime64
}

// quantFromEffective is a helper mapping search moves across the int/float
// boundary of the quantization axis.
func quantNeighbors(q quant.Config) []quant.Config {
	var out []quant.Config
	lo, hi := q.Res.Bounds()
	if q.Bits > lo {
		out = append(out, quant.Config{Res: q.Res, Bits: q.Bits - 1})
	}
	if q.Bits < hi {
		out = append(out, quant.Config{Res: q.Res, Bits: q.Bits + 1})
	}
	// "replace" morphism: switch representation family (Table II).
	if q.Res == quant.Int {
		out = append(out, quant.Config{Res: quant.Float, Bits: 9})
	} else {
		out = append(out, quant.Config{Res: quant.Int, Bits: 8})
	}
	return out
}
