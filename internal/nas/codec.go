package nas

import (
	"fmt"

	"solarml/internal/bytecodec"
	"solarml/internal/dataset"
	"solarml/internal/dsp"
	"solarml/internal/nn"
	"solarml/internal/quant"
)

// GenomeCodecVersion is the version byte leading every encoded candidate.
// Bump it when the Candidate structure changes shape; decoders reject
// versions they do not know rather than misparse.
const GenomeCodecVersion = 1

// resultCodecVersion versions the Result encoding independently (Result
// gains fields on a different schedule than the search space).
const resultCodecVersion = 1

// AppendCandidate appends a versioned binary encoding of c — the "genome"
// serialization behind search checkpoints and the persistent evaluation
// memo. The encoding is a pure function of the candidate (no map order, no
// pointers), so encode→decode→encode is byte-identical, and it covers every
// field Fingerprint covers plus the ones it elides (stride/pad defaults,
// audio sample rate), so a decoded candidate rebuilds the same network.
func AppendCandidate(b []byte, c *Candidate) []byte {
	b = bytecodec.AppendUvarint(b, GenomeCodecVersion)
	b = bytecodec.AppendInt(b, int(c.Task))
	b = bytecodec.AppendInt(b, c.Gesture.Channels)
	b = bytecodec.AppendInt(b, c.Gesture.RateHz)
	b = bytecodec.AppendInt(b, int(c.Gesture.Quant.Res))
	b = bytecodec.AppendInt(b, c.Gesture.Quant.Bits)
	b = bytecodec.AppendInt(b, c.Audio.SampleRate)
	b = bytecodec.AppendInt(b, c.Audio.StripeMS)
	b = bytecodec.AppendInt(b, c.Audio.DurationMS)
	b = bytecodec.AppendInt(b, c.Audio.NumFeatures)
	b = bytecodec.AppendInt(b, c.Arch.Classes)
	b = bytecodec.AppendUvarint(b, uint64(len(c.Arch.Input)))
	for _, d := range c.Arch.Input {
		b = bytecodec.AppendInt(b, d)
	}
	b = bytecodec.AppendUvarint(b, uint64(len(c.Arch.Body)))
	for _, s := range c.Arch.Body {
		b = bytecodec.AppendInt(b, int(s.Kind))
		b = bytecodec.AppendInt(b, s.Out)
		b = bytecodec.AppendInt(b, s.K)
		b = bytecodec.AppendInt(b, s.Stride)
		b = bytecodec.AppendInt(b, s.Pad)
	}
	return b
}

// ReadCandidate decodes one candidate from r.
func ReadCandidate(r *bytecodec.Reader) (*Candidate, error) {
	if v := r.Uvarint(); r.Err() == nil && v != GenomeCodecVersion {
		return nil, fmt.Errorf("nas: unknown genome codec version %d (have %d)", v, GenomeCodecVersion)
	}
	c := &Candidate{Arch: &nn.Arch{}}
	c.Task = Task(r.Int())
	c.Gesture = dataset.GestureConfig{
		Channels: r.Int(), RateHz: r.Int(),
		Quant: quant.Config{Res: quant.Resolution(r.Int()), Bits: r.Int()},
	}
	c.Audio = dsp.FrontEndConfig{
		SampleRate: r.Int(), StripeMS: r.Int(), DurationMS: r.Int(), NumFeatures: r.Int(),
	}
	c.Arch.Classes = r.Int()
	if n := r.Uvarint(); r.Err() == nil {
		if n > 16 {
			return nil, fmt.Errorf("nas: implausible input rank %d", n)
		}
		c.Arch.Input = make([]int, n)
		for i := range c.Arch.Input {
			c.Arch.Input[i] = r.Int()
		}
	}
	if n := r.Uvarint(); r.Err() == nil {
		if n > 4096 {
			return nil, fmt.Errorf("nas: implausible body length %d", n)
		}
		c.Arch.Body = make([]nn.LayerSpec, n)
		for i := range c.Arch.Body {
			c.Arch.Body[i] = nn.LayerSpec{
				Kind: nn.LayerKind(r.Int()), Out: r.Int(),
				K: r.Int(), Stride: r.Int(), Pad: r.Int(),
			}
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("nas: decode candidate: %w", err)
	}
	return c, nil
}

// AppendResult appends a versioned binary encoding of res. MACsByKind is
// written as its present kinds in ascending order, each with its count.
func AppendResult(b []byte, res Result) []byte {
	b = bytecodec.AppendUvarint(b, resultCodecVersion)
	b = bytecodec.AppendF64(b, res.Accuracy)
	b = bytecodec.AppendF64(b, res.SensingJ)
	b = bytecodec.AppendF64(b, res.InferJ)
	b = bytecodec.AppendF64(b, res.EnergyJ)
	b = bytecodec.AppendVarint(b, res.TotalMACs)
	var n uint64
	for k := range nn.NumLayerKinds {
		if res.MACsByKind.Has(k) {
			n++
		}
	}
	b = bytecodec.AppendUvarint(b, n)
	for k := range nn.NumLayerKinds {
		if res.MACsByKind.Has(k) {
			b = bytecodec.AppendInt(b, int(k))
			b = bytecodec.AppendVarint(b, res.MACsByKind.Of(k))
		}
	}
	return b
}

// ReadResult decodes one result from r. Kinds must be strictly ascending
// and inside the layer-kind enum, as AppendResult writes them.
func ReadResult(r *bytecodec.Reader) (Result, error) {
	var res Result
	if v := r.Uvarint(); r.Err() == nil && v != resultCodecVersion {
		return res, fmt.Errorf("nas: unknown result codec version %d (have %d)", v, resultCodecVersion)
	}
	res.Accuracy = r.F64()
	res.SensingJ = r.F64()
	res.InferJ = r.F64()
	res.EnergyJ = r.F64()
	res.TotalMACs = r.Varint()
	if n := r.Uvarint(); r.Err() == nil {
		if n > uint64(nn.NumLayerKinds) {
			return res, fmt.Errorf("nas: implausible MAC kind count %d", n)
		}
		prev := -1
		for i := uint64(0); i < n; i++ {
			k, macs := r.Int(), r.Varint()
			if r.Err() != nil {
				break
			}
			if k <= prev || k >= int(nn.NumLayerKinds) {
				return res, fmt.Errorf("nas: MAC kind %d out of order or outside [0, %d)", k, nn.NumLayerKinds)
			}
			res.MACsByKind.Add(nn.LayerKind(k), macs)
			prev = k
		}
	}
	if err := r.Err(); err != nil {
		return res, fmt.Errorf("nas: decode result: %w", err)
	}
	return res, nil
}
