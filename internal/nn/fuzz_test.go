package nn

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"

	"solarml/internal/bytecodec"
)

// The fuzzers feed the payload decoders directly: the container's CRC
// rejects almost every mutated file before a decoder sees it. Run the
// corpora as plain tests, or explore with
// `go test -fuzz=FuzzLoadModel ./internal/nn` (or FuzzLoadInt8Model).

// sealContainer wraps a payload in a valid container, checksum included —
// what anyone crafting a hostile file can do.
func sealContainer(kind int, payload []byte) []byte {
	var buf bytes.Buffer
	if err := writeContainer(&buf, kind, payload); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// craftedFloatContainer is a 59-byte float model declaring one Dense layer
// from 4096 inputs to 4000 outputs — within the 2²⁴ parameter screen —
// and no parameter bytes at all.
func craftedFloatContainer() []byte {
	p := []byte(modelMagic)
	for _, v := range []uint32{modelVersion, 1, 4096, 2, 1, uint32(KindDense), 4000, 0, 0, 0} {
		p = binary.LittleEndian.AppendUint32(p, v)
	}
	return sealContainer(payloadFloat, p)
}

// craftedInt8Container is a 50-byte .q8 whose first op declares a bias
// list of 2²⁴ elements, then ends inside the first one.
func craftedInt8Container() []byte {
	p := bytecodec.AppendUvarint(nil, int8ModelVersion)
	p = bytecodec.AppendUvarint(p, 1) // input rank
	p = bytecodec.AppendUvarint(p, 4)
	p = bytecodec.AppendUvarint(p, 2) // classes
	p = bytecodec.AppendF64(p, 0)     // input scale
	p = bytecodec.AppendUvarint(p, 8)
	p = bytecodec.AppendUvarint(p, 8)
	p = bytecodec.AppendString(p, "")
	p = bytecodec.AppendUvarint(p, 1)    // one op
	p = append(p, make([]byte, 2+11)...) // kind, relu, geometry: all 0
	p = bytecodec.AppendBytes(p, nil)    // no weights
	p = bytecodec.AppendUvarint(p, 1<<24)
	p = append(p, 0x80) // a truncated varint
	return sealContainer(payloadInt8, p)
}

// allocGrowth returns the bytes allocated while f runs.
func allocGrowth(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLoadModelChecksBytesBeforeBuild pins the float decoder's size screen:
// a description whose parameters cannot fit in the bytes left is rejected
// before Build allocates value, gradient and momentum tensors for it.
func TestLoadModelChecksBytesBeforeBuild(t *testing.T) {
	file := craftedFloatContainer()
	if len(file) != 59 {
		t.Fatalf("crafted container is %d bytes, want 59", len(file))
	}
	var err error
	grew := allocGrowth(func() { _, _, err = LoadModel(bytes.NewReader(file)) })
	if err == nil {
		t.Fatal("a model without parameter bytes must be rejected")
	}
	if grew >= 1<<20 {
		t.Fatalf("rejecting a %d-byte file allocated %d bytes", len(file), grew)
	}
}

// TestLoadInt8ModelBoundsListCounts pins the int8 decoder's list screen: a
// count the remaining bytes cannot hold is rejected before the list is
// allocated.
func TestLoadInt8ModelBoundsListCounts(t *testing.T) {
	file := craftedInt8Container()
	if len(file) != 50 {
		t.Fatalf("crafted container is %d bytes, want 50", len(file))
	}
	var err error
	grew := allocGrowth(func() { _, err = LoadInt8Model(bytes.NewReader(file)) })
	if err == nil {
		t.Fatal("an oversized list count must be rejected")
	}
	if grew >= 1<<20 {
		t.Fatalf("rejecting a %d-byte file allocated %d bytes", len(file), grew)
	}
}

// FuzzLoadModel asserts the float model decoder never panics on malformed
// input — it must fail with an error, whatever the bytes. Inputs are raw
// SMLM payloads; each also goes through LoadModel, so whole containers
// (seeded below) reach the envelope checks and the decoder behind them.
func FuzzLoadModel(f *testing.F) {
	// Seed with a valid model and a few corruptions of it.
	arch := &Arch{Input: []int{1, 4, 4}, Body: []LayerSpec{
		{Kind: KindConv, Out: 2, K: 3, Stride: 1, Pad: 1},
		{Kind: KindReLU},
	}, Classes: 2}
	net, err := arch.Build()
	if err != nil {
		f.Fatal(err)
	}
	net.Init(rand.New(rand.NewSource(1)))
	valid := encodeFloatModel(arch, net)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("SMLM"))
	f.Add([]byte{})
	corrupt := append([]byte(nil), valid...)
	for i := 8; i < 24 && i < len(corrupt); i++ {
		corrupt[i] = 0xFF
	}
	f.Add(corrupt)
	f.Add(sealContainer(payloadFloat, valid))
	f.Add(craftedFloatContainer())

	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic; errors are fine.
		_, _, _ = decodeFloatModel(data)
		_, _, _ = LoadModel(bytes.NewReader(data))
	})
}

// FuzzLoadInt8Model asserts the int8 model decoder never panics on
// malformed input, and that whatever it accepts re-encodes stably and
// exports a header. Inputs are int8 payloads; each also goes through
// LoadInt8Model, so whole .q8 files (seeded below, plus the committed
// oversized-count file) reach the decoder behind the envelope.
func FuzzLoadInt8Model(f *testing.F) {
	m := allOpsModel(f)
	valid, err := appendInt8Model(nil, m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add(sealContainer(payloadInt8, valid))

	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = LoadInt8Model(bytes.NewReader(data))
		m, err := readInt8Model(data)
		if err != nil {
			return
		}
		enc, err := appendInt8Model(nil, m)
		if err != nil {
			t.Fatalf("decoded model does not re-encode: %v", err)
		}
		m2, err := readInt8Model(enc)
		if err != nil {
			t.Fatalf("re-encoded model does not decode: %v", err)
		}
		if enc2, _ := appendInt8Model(nil, m2); !bytes.Equal(enc, enc2) {
			t.Fatal("encode→decode→encode is not stable")
		}
		_ = m.ExportCHeader(&bytes.Buffer{}, "fuzz") // non-finite head constants may error; must not panic
	})
}
