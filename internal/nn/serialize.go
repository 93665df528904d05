package nn

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// The float payload of the model container (SaveModel/LoadModel) is an SMLM
// stream: the architecture description plus all trained parameters, so a
// search winner can be stored and redeployed without retraining. Layout
// (little endian):
//
//	magic "SMLM" | version u32 | input dims | classes | body specs | params
//	| BatchNorm running statistics
const (
	modelMagic   = "SMLM"
	modelVersion = 1
)

var le = binary.LittleEndian

// appendF64sLE appends each value as its little-endian IEEE-754 bits.
func appendF64sLE(b []byte, v []float64) []byte {
	for _, x := range v {
		b = le.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// batchNorms returns the network's BatchNorm layers in order.
func batchNorms(net *Network) []*BatchNorm {
	var norms []*BatchNorm
	for _, l := range net.Layers {
		if bn, ok := l.(*BatchNorm); ok {
			norms = append(norms, bn)
		}
	}
	return norms
}

// encodeFloatModel serializes the architecture and the network's trained
// parameters. net must have been built from arch (the layer structure must
// match).
func encodeFloatModel(arch *Arch, net *Network) []byte {
	b := append([]byte(nil), modelMagic...)
	b = le.AppendUint32(b, modelVersion)
	b = le.AppendUint32(b, uint32(len(arch.Input)))
	for _, d := range arch.Input {
		b = le.AppendUint32(b, uint32(d))
	}
	b = le.AppendUint32(b, uint32(arch.Classes))
	b = le.AppendUint32(b, uint32(len(arch.Body)))
	for _, s := range arch.Body {
		for _, v := range []int{int(s.Kind), s.Out, s.K, s.Stride, s.Pad} {
			b = le.AppendUint32(b, uint32(int32(v)))
		}
	}
	params := net.Params()
	b = le.AppendUint32(b, uint32(len(params)))
	for _, p := range params {
		b = le.AppendUint32(b, uint32(p.Value.Len()))
		b = appendF64sLE(b, p.Value.Data)
	}
	// BatchNorm running statistics are inference state, not trainable
	// parameters, but logits only reproduce when they ship with the model.
	norms := batchNorms(net)
	b = le.AppendUint32(b, uint32(len(norms)))
	for _, bn := range norms {
		b = le.AppendUint32(b, uint32(bn.C))
		b = appendF64sLE(b, bn.RunMean)
		b = appendF64sLE(b, bn.RunVar)
	}
	return b
}

// smlmReader is a sticky-error little-endian cursor over an SMLM payload.
type smlmReader struct {
	b   []byte
	err error
}

func (r *smlmReader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 4 {
		r.err = io.ErrUnexpectedEOF
		return 0
	}
	v := le.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *smlmReader) f64s(dst []float64) {
	if r.err != nil {
		return
	}
	if len(r.b) < 8*len(dst) {
		r.err = io.ErrUnexpectedEOF
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(le.Uint64(r.b[8*i:]))
	}
	r.b = r.b[8*len(dst):]
}

// decodeFloatModel parses an SMLM payload, rebuilds the network, and
// restores its parameters. The description is screened arithmetically, and
// checked against the bytes left to hold its parameters, before anything
// is allocated: a corrupt or crafted payload cannot trigger a build larger
// than itself.
func decodeFloatModel(payload []byte) (*Arch, *Network, error) {
	if len(payload) < len(modelMagic) || string(payload[:len(modelMagic)]) != modelMagic {
		return nil, nil, fmt.Errorf("nn: bad float model magic")
	}
	r := &smlmReader{b: payload[len(modelMagic):]}
	if ver := r.u32(); r.err == nil && ver != modelVersion {
		return nil, nil, fmt.Errorf("nn: unsupported model version %d", ver)
	}
	nDims := r.u32()
	if nDims > 8 {
		return nil, nil, fmt.Errorf("nn: implausible input rank %d", nDims)
	}
	arch := &Arch{}
	volume := int64(1)
	for i := uint32(0); i < nDims && r.err == nil; i++ {
		d := r.u32()
		if r.err == nil && (d == 0 || d > 1<<16) {
			return nil, nil, fmt.Errorf("nn: implausible input dimension %d", d)
		}
		volume *= int64(d)
		if volume > 1<<24 {
			return nil, nil, fmt.Errorf("nn: implausible input volume")
		}
		arch.Input = append(arch.Input, int(d))
	}
	classes := r.u32()
	if r.err == nil && (classes < 2 || classes > 1<<16) {
		return nil, nil, fmt.Errorf("nn: implausible class count %d", classes)
	}
	arch.Classes = int(classes)
	nBody := r.u32()
	if nBody > 1024 {
		return nil, nil, fmt.Errorf("nn: implausible body length %d", nBody)
	}
	for i := uint32(0); i < nBody && r.err == nil; i++ {
		var vals [5]int32
		for j := range vals {
			vals[j] = int32(r.u32())
		}
		for _, v := range vals[1:] {
			if v < 0 || v > 1<<16 {
				return nil, nil, fmt.Errorf("nn: implausible layer field %d", v)
			}
		}
		if vals[0] < 0 || vals[0] >= int32(NumLayerKinds) {
			return nil, nil, fmt.Errorf("nn: unknown layer kind %d", vals[0])
		}
		arch.Body = append(arch.Body, LayerSpec{
			Kind: LayerKind(vals[0]), Out: int(vals[1]), K: int(vals[2]),
			Stride: int(vals[3]), Pad: int(vals[4]),
		})
	}
	if r.err != nil {
		return nil, nil, fmt.Errorf("nn: reading architecture: %w", r.err)
	}
	an, err := arch.Analyze()
	if err != nil {
		return nil, nil, fmt.Errorf("nn: screening architecture: %w", err)
	}
	if an.Params > 1<<24 {
		return nil, nil, fmt.Errorf("nn: implausible parameter count %d", an.Params)
	}
	// Every parameter and every BatchNorm running statistic is 8 bytes.
	if need := 8 * (an.Params + an.normStats); int64(len(r.b)) < need {
		return nil, nil, fmt.Errorf("nn: %d bytes left for %d parameters and %d norm statistics (truncated file)",
			len(r.b), an.Params, an.normStats)
	}
	net, err := arch.Build()
	if err != nil {
		return nil, nil, fmt.Errorf("nn: rebuilding architecture: %w", err)
	}
	params := net.Params()
	if n := r.u32(); r.err == nil && int(n) != len(params) {
		return nil, nil, fmt.Errorf("nn: file has %d param tensors, architecture needs %d", n, len(params))
	}
	for i, p := range params {
		if n := r.u32(); r.err == nil && int(n) != p.Value.Len() {
			return nil, nil, fmt.Errorf("nn: param %d has %d values, want %d", i, n, p.Value.Len())
		}
		r.f64s(p.Value.Data)
	}
	norms := batchNorms(net)
	if n := r.u32(); r.err == nil && int(n) != len(norms) {
		return nil, nil, fmt.Errorf("nn: file has %d norm layers, architecture has %d", n, len(norms))
	}
	for i, bn := range norms {
		if c := r.u32(); r.err == nil && int(c) != bn.C {
			return nil, nil, fmt.Errorf("nn: norm %d has %d channels, want %d", i, c, bn.C)
		}
		r.f64s(bn.RunMean)
		r.f64s(bn.RunVar)
	}
	if r.err != nil {
		return nil, nil, fmt.Errorf("nn: reading parameters: %w", r.err)
	}
	return arch, net, nil
}
