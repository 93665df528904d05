package nas

// Genome/result codec pins: encode→decode→encode byte-equality on real
// candidates from both search spaces, version rejection, and fuzzing of the
// decoders (arbitrary bytes must never panic, and any accepted buffer must
// re-encode identically — the property search checkpoints depend on).

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"testing"

	"solarml/internal/bytecodec"
	"solarml/internal/dataset"
	"solarml/internal/nn"
	"solarml/internal/quant"
)

func TestCandidateCodecRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name  string
		space *Space
	}{
		{"gesture", GestureSpace()},
		{"kws", KWSSpace()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(9))
			for i := 0; i < 50; i++ {
				c := tc.space.RandomCandidate(rng)
				enc := AppendCandidate(nil, c)
				r := bytecodec.NewReader(enc)
				dec, err := ReadCandidate(r)
				if err != nil {
					t.Fatalf("decode candidate %d: %v", i, err)
				}
				if r.Len() != 0 {
					t.Fatalf("candidate %d: %d trailing bytes", i, r.Len())
				}
				if dec.Fingerprint() != c.Fingerprint() {
					t.Fatalf("candidate %d: fingerprint %#x != %#x", i, dec.Fingerprint(), c.Fingerprint())
				}
				if again := AppendCandidate(nil, dec); !bytes.Equal(enc, again) {
					t.Fatalf("candidate %d: re-encode differs (%d vs %d bytes)", i, len(enc), len(again))
				}
			}
		})
	}
}

func TestResultCodecRoundTrip(t *testing.T) {
	res := Result{
		Accuracy: 0.875, SensingJ: 1.5e-4, InferJ: 2.5e-4, EnergyJ: 4e-4,
		TotalMACs:  123456,
		MACsByKind: nn.KindMACs{}.With(nn.KindConv, 100000).With(nn.KindDense, 23456),
	}
	enc := AppendResult(nil, res)
	r := bytecodec.NewReader(enc)
	dec, err := ReadResult(r)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if r.Len() != 0 {
		t.Fatalf("%d trailing bytes", r.Len())
	}
	if again := AppendResult(nil, dec); !bytes.Equal(enc, again) {
		t.Fatalf("re-encode differs")
	}
}

// TestResultCodecGoldenBytes pins the result encoding of one fixed
// candidate's surrogate result, whose per-kind MACs include the zero-valued
// ReLU and Flatten entries: the bytes search memos and checkpoints hold must
// not change with the in-memory representation of the MAC breakdown. The
// tail 05 00… 04… 06… 0c00 0e00 is five kinds in ascending order: Conv,
// Dense, MaxPool, then ReLU and Flatten at zero MACs.
func TestResultCodecGoldenBytes(t *testing.T) {
	c := &Candidate{
		Task: TaskGesture,
		Gesture: dataset.GestureConfig{
			Channels: 6, RateHz: 80, Quant: quant.Config{Res: quant.Int, Bits: 8},
		},
		Arch: &nn.Arch{Body: []nn.LayerSpec{
			{Kind: nn.KindConv, Out: 8, K: 3, Stride: 1, Pad: 1},
			{Kind: nn.KindReLU},
			{Kind: nn.KindMaxPool, K: 2},
			{Kind: nn.KindDense, Out: 16},
			{Kind: nn.KindReLU},
		}},
	}
	res, err := NewSurrogateEvaluator(NewTruthEnergy()).Evaluate(c)
	if err != nil {
		t.Fatal(err)
	}
	const want = "01acf25295092ade3f5ea6e4a4498c623f9c14b0fcc9a2223fa8a7af4476b6633fc0ee09" +
		"050080aa0604c0ea0206805a0c000e00"
	if got := hex.EncodeToString(AppendResult(nil, res)); got != want {
		t.Fatalf("result bytes\n got %s\nwant %s", got, want)
	}
}

func TestCandidateCodecRejectsVersionSkew(t *testing.T) {
	c := GestureSpace().RandomCandidate(rand.New(rand.NewSource(1)))
	enc := AppendCandidate(nil, c)
	enc[0] = GenomeCodecVersion + 1 // version leads as a single-byte uvarint
	if _, err := ReadCandidate(bytecodec.NewReader(enc)); err == nil {
		t.Fatal("decode accepted an unknown genome version")
	}
}

// FuzzReadCandidate: arbitrary bytes must never panic the decoder, nor the
// static constraint check and validation that checkpoint and memo restore
// run on what it decodes; a candidate that validates must be bound to the
// fingerprint and analysis a fresh computation gives; and any accepted input must satisfy
// encode→decode→encode byte-equality once normalized (the raw input itself
// may use non-minimal varints, which Go's varint reader tolerates, so the
// first encode canonicalizes).
func FuzzReadCandidate(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	f.Add(AppendCandidate(nil, GestureSpace().RandomCandidate(rng)))
	f.Add(AppendCandidate(nil, KWSSpace().RandomCandidate(rng)))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytecodec.NewReader(data)
		c, err := ReadCandidate(r)
		if err != nil || r.Len() != 0 {
			return
		}
		enc := AppendCandidate(nil, c)
		_ = DefaultConstraints(c.Task).CheckStatic(c)
		if c.Validate() == nil {
			if err := BindingMismatch(c); err != nil {
				t.Fatalf("validated candidate: %v", err)
			}
		}
		r2 := bytecodec.NewReader(enc)
		c2, err := ReadCandidate(r2)
		if err != nil || r2.Len() != 0 {
			t.Fatalf("canonical encoding failed to decode: %v (%d left)", err, r2.Len())
		}
		if again := AppendCandidate(nil, c2); !bytes.Equal(enc, again) {
			t.Fatalf("encode→decode→encode is not byte-identical")
		}
	})
}

// resultWithKinds encodes a result whose MAC breakdown lists the given kinds
// in the given order, one MAC each — including orders and kinds
// AppendResult never writes.
func resultWithKinds(kinds ...int) []byte {
	b := AppendResult(nil, Result{Accuracy: 0.5, EnergyJ: 1e-3, TotalMACs: int64(len(kinds))})
	b = b[:len(b)-1] // drop the empty breakdown's zero count
	b = bytecodec.AppendUvarint(b, uint64(len(kinds)))
	for _, k := range kinds {
		b = bytecodec.AppendInt(b, k)
		b = bytecodec.AppendVarint(b, 1)
	}
	return b
}

// malformedKinds are MAC breakdowns ReadResult must reject: a kind outside
// the enum, a negative kind, a repeated kind, and descending kinds.
var malformedKinds = [][]int{
	{int(nn.NumLayerKinds)},
	{-1},
	{int(nn.KindConv), int(nn.KindConv)},
	{int(nn.KindDense), int(nn.KindConv)},
}

func TestReadResultRejectsMalformedKinds(t *testing.T) {
	if _, err := ReadResult(bytecodec.NewReader(resultWithKinds(0, 2, 7))); err != nil {
		t.Fatalf("ascending in-range kinds rejected: %v", err)
	}
	for _, kinds := range malformedKinds {
		if _, err := ReadResult(bytecodec.NewReader(resultWithKinds(kinds...))); err == nil {
			t.Errorf("kinds %v accepted", kinds)
		}
	}
}

// FuzzReadResult mirrors FuzzReadCandidate for the result codec, and a
// decoded result equals its re-decoded copy.
func FuzzReadResult(f *testing.F) {
	f.Add(AppendResult(nil, Result{Accuracy: 0.5, EnergyJ: 1e-3, TotalMACs: 7}))
	f.Add([]byte{})
	f.Add(resultWithKinds(0, 2, 7))
	for _, kinds := range malformedKinds {
		f.Add(resultWithKinds(kinds...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytecodec.NewReader(data)
		res, err := ReadResult(r)
		if err != nil || r.Len() != 0 {
			return
		}
		enc := AppendResult(nil, res)
		r2 := bytecodec.NewReader(enc)
		res2, err := ReadResult(r2)
		if err != nil || r2.Len() != 0 {
			t.Fatalf("canonical encoding failed to decode: %v (%d left)", err, r2.Len())
		}
		// A NaN field is unequal to itself; the byte comparison below
		// covers it.
		if res2.MACsByKind != res.MACsByKind || (res == res && res2 != res) {
			t.Fatalf("re-decoded %+v, decoded %+v", res2, res)
		}
		if again := AppendResult(nil, res2); !bytes.Equal(enc, again) {
			t.Fatalf("encode→decode→encode is not byte-identical")
		}
	})
}
