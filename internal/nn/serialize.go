package nn

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Model files carry the architecture description plus all trained
// parameters, so a search winner can be stored and redeployed without
// retraining. Format (little endian):
//
//	magic "SMLM" | version u32 | input dims | classes | body specs | params
const (
	modelMagic   = "SMLM"
	modelVersion = 1
)

// SaveModel writes the architecture and the network's trained parameters.
// net must have been built from arch (the layer structure must match).
func SaveModel(w io.Writer, arch *Arch, net *Network) error {
	if _, err := io.WriteString(w, modelMagic); err != nil {
		return err
	}
	le := binary.LittleEndian
	writeU32 := func(v uint32) error { return binary.Write(w, le, v) }
	if err := writeU32(modelVersion); err != nil {
		return err
	}
	if err := writeU32(uint32(len(arch.Input))); err != nil {
		return err
	}
	for _, d := range arch.Input {
		if err := writeU32(uint32(d)); err != nil {
			return err
		}
	}
	if err := writeU32(uint32(arch.Classes)); err != nil {
		return err
	}
	if err := writeU32(uint32(len(arch.Body))); err != nil {
		return err
	}
	for _, s := range arch.Body {
		for _, v := range []int{int(s.Kind), s.Out, s.K, s.Stride, s.Pad} {
			if err := binary.Write(w, le, int32(v)); err != nil {
				return err
			}
		}
	}
	params := net.Params()
	if err := writeU32(uint32(len(params))); err != nil {
		return err
	}
	for _, p := range params {
		if err := writeU32(uint32(p.Value.Len())); err != nil {
			return err
		}
		if err := binary.Write(w, le, p.Value.Data); err != nil {
			return err
		}
	}
	// BatchNorm running statistics are inference state, not trainable
	// parameters, but logits only reproduce when they ship with the model.
	var norms []*BatchNorm
	for _, l := range net.Layers {
		if bn, ok := l.(*BatchNorm); ok {
			norms = append(norms, bn)
		}
	}
	if err := writeU32(uint32(len(norms))); err != nil {
		return err
	}
	for _, bn := range norms {
		if err := writeU32(uint32(bn.C)); err != nil {
			return err
		}
		if err := binary.Write(w, le, bn.RunMean); err != nil {
			return err
		}
		if err := binary.Write(w, le, bn.RunVar); err != nil {
			return err
		}
	}
	return nil
}

// LoadModel reads a model file, rebuilds the network, and restores its
// parameters.
func LoadModel(r io.Reader) (*Arch, *Network, error) {
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, nil, fmt.Errorf("nn: reading magic: %w", err)
	}
	if string(magic) != modelMagic {
		return nil, nil, fmt.Errorf("nn: bad magic %q", magic)
	}
	le := binary.LittleEndian
	readU32 := func() (uint32, error) {
		var v uint32
		err := binary.Read(r, le, &v)
		return v, err
	}
	ver, err := readU32()
	if err != nil {
		return nil, nil, err
	}
	if ver != modelVersion {
		return nil, nil, fmt.Errorf("nn: unsupported model version %d", ver)
	}
	nDims, err := readU32()
	if err != nil {
		return nil, nil, err
	}
	if nDims > 8 {
		return nil, nil, fmt.Errorf("nn: implausible input rank %d", nDims)
	}
	arch := &Arch{}
	volume := int64(1)
	for i := uint32(0); i < nDims; i++ {
		d, err := readU32()
		if err != nil {
			return nil, nil, err
		}
		if d == 0 || d > 1<<16 {
			return nil, nil, fmt.Errorf("nn: implausible input dimension %d", d)
		}
		volume *= int64(d)
		if volume > 1<<24 {
			return nil, nil, fmt.Errorf("nn: implausible input volume")
		}
		arch.Input = append(arch.Input, int(d))
	}
	classes, err := readU32()
	if err != nil {
		return nil, nil, err
	}
	if classes < 2 || classes > 1<<16 {
		return nil, nil, fmt.Errorf("nn: implausible class count %d", classes)
	}
	arch.Classes = int(classes)
	nBody, err := readU32()
	if err != nil {
		return nil, nil, err
	}
	if nBody > 1024 {
		return nil, nil, fmt.Errorf("nn: implausible body length %d", nBody)
	}
	for i := uint32(0); i < nBody; i++ {
		var vals [5]int32
		for j := range vals {
			if err := binary.Read(r, le, &vals[j]); err != nil {
				return nil, nil, err
			}
		}
		for _, v := range vals[1:] {
			if v < 0 || v > 1<<16 {
				return nil, nil, fmt.Errorf("nn: implausible layer field %d", v)
			}
		}
		if vals[0] < 0 || vals[0] >= int32(numLayerKinds) {
			return nil, nil, fmt.Errorf("nn: unknown layer kind %d", vals[0])
		}
		arch.Body = append(arch.Body, LayerSpec{
			Kind: LayerKind(vals[0]), Out: int(vals[1]), K: int(vals[2]),
			Stride: int(vals[3]), Pad: int(vals[4]),
		})
	}
	// Screen the description arithmetically before allocating anything:
	// a corrupted file must not trigger multi-gigabyte builds.
	an, err := arch.Analyze()
	if err != nil {
		return nil, nil, fmt.Errorf("nn: screening architecture: %w", err)
	}
	if an.Params > 1<<24 {
		return nil, nil, fmt.Errorf("nn: implausible parameter count %d", an.Params)
	}
	net, err := arch.Build()
	if err != nil {
		return nil, nil, fmt.Errorf("nn: rebuilding architecture: %w", err)
	}
	nParams, err := readU32()
	if err != nil {
		return nil, nil, err
	}
	params := net.Params()
	if int(nParams) != len(params) {
		return nil, nil, fmt.Errorf("nn: file has %d param tensors, architecture needs %d", nParams, len(params))
	}
	for i, p := range params {
		n, err := readU32()
		if err != nil {
			return nil, nil, err
		}
		if int(n) != p.Value.Len() {
			return nil, nil, fmt.Errorf("nn: param %d has %d values, want %d", i, n, p.Value.Len())
		}
		if err := binary.Read(r, le, p.Value.Data); err != nil {
			return nil, nil, err
		}
	}
	var norms []*BatchNorm
	for _, l := range net.Layers {
		if bn, ok := l.(*BatchNorm); ok {
			norms = append(norms, bn)
		}
	}
	nNorms, err := readU32()
	if err != nil {
		return nil, nil, err
	}
	if int(nNorms) != len(norms) {
		return nil, nil, fmt.Errorf("nn: file has %d norm layers, architecture has %d", nNorms, len(norms))
	}
	for i, bn := range norms {
		c, err := readU32()
		if err != nil {
			return nil, nil, err
		}
		if int(c) != bn.C {
			return nil, nil, fmt.Errorf("nn: norm %d has %d channels, want %d", i, c, bn.C)
		}
		if err := binary.Read(r, le, bn.RunMean); err != nil {
			return nil, nil, err
		}
		if err := binary.Read(r, le, bn.RunVar); err != nil {
			return nil, nil, err
		}
	}
	return arch, net, nil
}
