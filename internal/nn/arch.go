package nn

import (
	"fmt"
	"math/bits"
	"strings"
)

// LayerSpec describes one layer of an architecture as data, so the NAS can
// mutate architectures without touching parameter tensors.
type LayerSpec struct {
	Kind   LayerKind
	Out    int // output channels (Conv) or units (Dense)
	K      int // kernel or pooling window
	Stride int
	Pad    int
}

// String renders a compact human-readable spec.
func (s LayerSpec) String() string {
	switch s.Kind {
	case KindConv:
		return fmt.Sprintf("Conv(%d,k%d,s%d,p%d)", s.Out, s.K, s.Stride, s.Pad)
	case KindDWConv:
		return fmt.Sprintf("DWConv(k%d,s%d,p%d)", s.K, s.Stride, s.Pad)
	case KindDense:
		return fmt.Sprintf("Dense(%d)", s.Out)
	case KindMaxPool:
		return fmt.Sprintf("MaxPool(%d)", s.K)
	case KindAvgPool:
		return fmt.Sprintf("AvgPool(%d)", s.K)
	case KindNorm:
		return "Norm"
	case KindReLU:
		return "ReLU"
	case KindFlatten:
		return "Flatten"
	}
	return "?"
}

// Arch is a sequential architecture description. Build appends a Flatten and
// a Dense classifier head over Classes outputs, so Body only describes the
// feature extractor.
type Arch struct {
	Input   []int // per-sample input shape: (C,H,W) for conv stacks, (F) for MLPs
	Body    []LayerSpec
	Classes int
}

// Clone returns a deep copy.
func (a *Arch) Clone() *Arch {
	b := &Arch{Input: append([]int(nil), a.Input...), Classes: a.Classes}
	b.Body = append([]LayerSpec(nil), a.Body...)
	return b
}

// String renders the architecture.
func (a *Arch) String() string {
	parts := make([]string, 0, len(a.Body)+2)
	parts = append(parts, fmt.Sprintf("In%v", a.Input))
	for _, s := range a.Body {
		parts = append(parts, s.String())
	}
	parts = append(parts, fmt.Sprintf("Head(%d)", a.Classes))
	return strings.Join(parts, "→")
}

// Analysis is the static profile of an architecture — everything the NAS
// constraints and the layer-wise energy model need — computed by shape
// arithmetic alone. It describes the network Build would return: implicit
// Flatten layers and the Dense classifier head included.
type Analysis struct {
	// Params is the trainable parameter count.
	Params int64
	// MACs holds the per-sample multiply-accumulate count of each layer
	// kind the built network contains (zero-valued ReLU and Flatten
	// included), the same breakdown Network.MACsByKind returns.
	MACs KindMACs
	// PeakActivation is the largest per-sample activation volume at any
	// layer boundary, the input included.
	PeakActivation int64
	// PeakPair is the largest sum of two consecutive activation volumes:
	// the working set of double-buffered execution.
	PeakPair int64

	normStats int64 // BatchNorm running-statistic values (mean and variance)
}

// MemoryBytes estimates MCU RAM exactly as Network.MemoryBytes does:
// weights at weightBits plus the two largest consecutive activations at
// activationBits.
func (an Analysis) MemoryBytes(weightBits, activationBits int) int64 {
	return an.Params*int64(weightBits)/8 + an.PeakPair*int64(activationBits)/8
}

// analysisLimit bounds every layer field, input dimension, and count that
// Analyze computes. Nothing near it can be materialized or run, and keeping
// each factor and product below it means no intermediate overflows int64 —
// Analyze is safe on untrusted descriptions.
const analysisLimit = 1 << 40

// inRange reports whether a layer field or width v lies in [lo, analysisLimit].
func inRange(v, lo int) bool { return v >= lo && v <= analysisLimit }

// product multiplies positive factors, reporting false once the running
// product exceeds analysisLimit.
func product(fs ...int) (int64, bool) {
	p := uint64(1)
	for _, f := range fs {
		if f <= 0 {
			return 0, false
		}
		hi, lo := bits.Mul64(p, uint64(f))
		if hi != 0 || lo > analysisLimit {
			return 0, false
		}
		p = lo
	}
	return int64(p), true
}

// walker is Analyze's running state: the per-sample activation shape —
// (C, H, W) when rank is 3, otherwise only the volume matters — and the
// analysis accumulated so far.
type walker struct {
	an      Analysis
	rank    int
	c, h, w int
	vol     int64
	prev    int64 // volume of the previous activation
}

// emit records a layer of the given kind whose output volume is w.vol.
func (w *walker) emit(kind LayerKind, params, macs int64) error {
	w.an.Params += params
	w.an.MACs.Add(kind, macs)
	if w.an.Params > analysisLimit || w.an.MACs.macs[kind] > analysisLimit {
		return fmt.Errorf("nn: %s exceeds the analysis limit", kind)
	}
	w.an.PeakActivation = max(w.an.PeakActivation, w.vol)
	w.an.PeakPair = max(w.an.PeakPair, w.prev+w.vol)
	w.prev = w.vol
	return nil
}

// spatial sets a (C, H, W) output shape.
func (w *walker) spatial(c, h, wd int) bool {
	vol, ok := product(c, h, wd)
	w.rank, w.c, w.h, w.w, w.vol = 3, c, h, wd, vol
	return ok
}

// flatten records a Flatten layer: rank 1, volume unchanged. It adds no
// parameters or MACs, so it cannot cross the limit.
func (w *walker) flatten() {
	w.rank = 1
	_ = w.emit(KindFlatten, 0, 0)
}

// dense records a Dense layer of out units over the current volume.
func (w *walker) dense(out int) error {
	if !inRange(out, 1) {
		return fmt.Errorf("nn: invalid Dense width %d", out)
	}
	weights, ok := product(int(w.vol), out)
	if !ok {
		return fmt.Errorf("nn: Dense(%d) over %d inputs exceeds the analysis limit", out, w.vol)
	}
	w.rank, w.vol = 1, int64(out)
	return w.emit(KindDense, weights+int64(out), weights)
}

// layer records one body layer.
func (w *walker) layer(s LayerSpec) error {
	switch s.Kind {
	case KindConv, KindDWConv:
		if w.rank != 3 {
			return fmt.Errorf("nn: %s needs (C,H,W) input, have rank %d", s.Kind, w.rank)
		}
		if !inRange(s.K, 1) || !inRange(s.Stride, 1) || !inRange(s.Pad, 0) {
			return fmt.Errorf("nn: invalid %s geometry (k=%d s=%d p=%d)", s.Kind, s.K, s.Stride, s.Pad)
		}
		out, fanIn := w.c, 1 // depthwise: one K×K filter per channel
		if s.Kind == KindConv {
			if !inRange(s.Out, 1) {
				return fmt.Errorf("nn: invalid Conv width %d", s.Out)
			}
			out, fanIn = s.Out, w.c
		}
		oh, ow := convOutDim(w.h, s.K, s.Stride, s.Pad), convOutDim(w.w, s.K, s.Stride, s.Pad)
		if oh <= 0 || ow <= 0 {
			return fmt.Errorf("nn: %s collapses input (%d,%d,%d) (k=%d s=%d)", s.Kind, w.c, w.h, w.w, s.K, s.Stride)
		}
		weights, ok1 := product(out, fanIn, s.K, s.K)
		macs, ok2 := product(out, oh, ow, fanIn, s.K, s.K)
		if !ok1 || !ok2 || !w.spatial(out, oh, ow) {
			return fmt.Errorf("nn: %s exceeds the analysis limit", s)
		}
		return w.emit(s.Kind, weights+int64(out), macs)
	case KindMaxPool, KindAvgPool:
		if w.rank != 3 || s.K <= 0 || w.h < s.K || w.w < s.K {
			return fmt.Errorf("nn: %s does not fit the input", s)
		}
		oh, ow := w.h/s.K, w.w/s.K
		macs, _ := product(w.c, oh, ow, s.K, s.K) // ≤ C·H·W, within the limit
		w.spatial(w.c, oh, ow)
		return w.emit(s.Kind, 0, macs)
	case KindNorm:
		if w.rank != 3 {
			return fmt.Errorf("nn: Norm needs (C,H,W) input, have rank %d", w.rank)
		}
		w.an.normStats += 2 * int64(w.c) // ≤ the norm's 2·C params, so within the limit
		return w.emit(KindNorm, 2*int64(w.c), 2*w.vol)
	case KindReLU:
		return w.emit(KindReLU, 0, 0)
	case KindFlatten:
		w.flatten()
		return nil
	case KindDense:
		return w.dense(s.Out)
	}
	return fmt.Errorf("nn: unknown layer kind %d", s.Kind)
}

// Analyze validates the architecture and returns its static profile without
// allocating: it walks the layer shapes of the network Build would
// materialize — implicit Flatten layers and the classifier head included —
// by arithmetic alone. An error means Build would refuse the description;
// every layer geometry that cannot run (non-positive kernels, strides,
// widths, or input dimensions, negative padding, collapsed outputs, counts
// beyond the analysis limit) is rejected, so Analyze is the screen for
// untrusted architecture bytes.
func (a *Arch) Analyze() (Analysis, error) {
	if a.Classes < 2 {
		return Analysis{}, fmt.Errorf("nn: Arch needs ≥2 classes, have %d", a.Classes)
	}
	vol, ok := product(a.Input...)
	if len(a.Input) == 0 || !ok {
		return Analysis{}, fmt.Errorf("nn: invalid input shape %v", a.Input)
	}
	w := walker{an: Analysis{PeakActivation: vol, PeakPair: vol}, rank: len(a.Input), vol: vol, prev: vol}
	if w.rank == 3 {
		w.c, w.h, w.w = a.Input[0], a.Input[1], a.Input[2]
	}
	dense := false
	for i, s := range a.Body {
		if dense && s.Kind != KindDense && s.Kind != KindReLU {
			return Analysis{}, fmt.Errorf("nn: layer %d (%s) after Dense must be Dense or ReLU", i, s)
		}
		if s.Kind == KindDense && !dense && w.rank > 1 {
			w.flatten()
		}
		if err := w.layer(s); err != nil {
			return Analysis{}, fmt.Errorf("nn: layer %d: %w", i, err)
		}
		dense = dense || s.Kind == KindDense
	}
	if w.rank > 1 {
		w.flatten()
	}
	if err := w.dense(a.Classes); err != nil {
		return Analysis{}, fmt.Errorf("nn: classifier head: %w", err)
	}
	return w.an, nil
}

// Validate reports whether the architecture materializes cleanly.
func (a *Arch) Validate() error {
	_, err := a.Analyze()
	return err
}

// materialize instantiates the layer for a given input shape. The spec must
// have passed Analyze as part of its architecture.
func (s LayerSpec) materialize(in []int) Layer {
	switch s.Kind {
	case KindConv:
		return NewConv2D(in[0], s.Out, s.K, s.Stride, s.Pad)
	case KindDWConv:
		return NewDepthwiseConv2D(in[0], s.K, s.Stride, s.Pad)
	case KindDense:
		return NewDense(shapeVolume(in), s.Out)
	case KindMaxPool:
		return NewMaxPool2D(s.K)
	case KindAvgPool:
		return NewAvgPool2D(s.K)
	case KindNorm:
		return NewBatchNorm(in[0])
	case KindReLU:
		return NewReLU()
	case KindFlatten:
		return NewFlatten()
	}
	panic(fmt.Sprintf("nn: materialize of unanalyzed layer kind %d", s.Kind))
}

// Build materializes the architecture into a Network with an appended
// Flatten + Dense classifier head. Parameters are left uninitialized. The
// description is validated by Analyze before any tensor is allocated.
func (a *Arch) Build() (*Network, error) {
	if _, err := a.Analyze(); err != nil {
		return nil, err
	}
	shape := append([]int(nil), a.Input...)
	var layers []Layer
	dense := false
	for _, s := range a.Body {
		if s.Kind == KindDense && !dense && len(shape) > 1 {
			fl := NewFlatten()
			layers = append(layers, fl)
			shape = fl.OutShape(shape)
		}
		l := s.materialize(shape)
		layers = append(layers, l)
		shape = l.OutShape(shape)
		dense = dense || s.Kind == KindDense
	}
	if len(shape) > 1 {
		fl := NewFlatten()
		layers = append(layers, fl)
		shape = fl.OutShape(shape)
	}
	layers = append(layers, NewDense(shape[0], a.Classes))
	return NewNetwork(a.Input, layers...), nil
}
