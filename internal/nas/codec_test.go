package nas

// Genome/result codec pins: encode→decode→encode byte-equality on real
// candidates from both search spaces, version rejection, and fuzzing of the
// decoders (arbitrary bytes must never panic, and any accepted buffer must
// re-encode identically — the property search checkpoints depend on).

import (
	"bytes"
	"math/rand"
	"testing"

	"solarml/internal/bytecodec"
	"solarml/internal/nn"
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
		MACsByKind: map[nn.LayerKind]int64{nn.KindConv: 100000, nn.KindDense: 23456},
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
// run on what it decodes; and any accepted input must satisfy
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
		_ = c.Validate()
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

// FuzzReadResult mirrors FuzzReadCandidate for the result codec.
func FuzzReadResult(f *testing.F) {
	f.Add(AppendResult(nil, Result{Accuracy: 0.5, EnergyJ: 1e-3, TotalMACs: 7}))
	f.Add([]byte{})
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
		if again := AppendResult(nil, res2); !bytes.Equal(enc, again) {
			t.Fatalf("encode→decode→encode is not byte-identical")
		}
	})
}
