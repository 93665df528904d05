package nn

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"solarml/internal/bytecodec"
)

// Model container: the one model file format. The files cmd/deploy writes
// and cmd/serve loads use the same envelope the evolution checkpoints use:
// a magic + version header, a typed payload, and a CRC32 (IEEE) trailer
// over everything before it. A truncated copy, a flipped bit, or a file
// from a build with a different layout fails loudly instead of
// deserializing garbage into a served model.
//
//	"SOLARMDL" | uvarint version | uvarint kind | bytes payload | crc32 (LE)
//
// Payload kinds: the float model as an SMLM stream (payloadFloat, see
// serialize.go) and the quantized int8 model (payloadInt8, see int8.go).
const (
	containerMagic   = "SOLARMDL"
	containerVersion = 1

	payloadFloat = 1
	payloadInt8  = 2
)

// writeContainer wraps payload in the versioned, checksummed envelope.
func writeContainer(w io.Writer, kind int, payload []byte) error {
	b := make([]byte, 0, len(containerMagic)+len(payload)+16)
	b = append(b, containerMagic...)
	b = bytecodec.AppendUvarint(b, containerVersion)
	b = bytecodec.AppendUvarint(b, uint64(kind))
	b = bytecodec.AppendBytes(b, payload)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	_, err := w.Write(b)
	return err
}

// readContainer verifies the envelope and returns the payload kind and
// bytes. Version skew is an explicit error (re-export, don't guess), as is
// any checksum or framing failure.
func readContainer(r io.Reader) (kind int, payload []byte, err error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return 0, nil, fmt.Errorf("nn: reading model container: %w", err)
	}
	if len(b) < len(containerMagic)+4 || string(b[:len(containerMagic)]) != containerMagic {
		return 0, nil, fmt.Errorf("nn: not a SolarML model container (bad magic)")
	}
	body, trailer := b[:len(b)-4], b[len(b)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return 0, nil, fmt.Errorf("nn: model container checksum mismatch (corrupt or truncated file)")
	}
	rd := bytecodec.NewReader(body[len(containerMagic):])
	ver := rd.Uvarint()
	if err := rd.Err(); err != nil {
		return 0, nil, fmt.Errorf("nn: model container header: %w", err)
	}
	if ver != containerVersion {
		return 0, nil, fmt.Errorf("nn: model container version %d; this build reads version %d (re-export the model with a matching cmd/deploy)", ver, containerVersion)
	}
	k := rd.Uvarint()
	payload = rd.Bytes()
	if err := rd.Err(); err != nil {
		return 0, nil, fmt.Errorf("nn: model container payload: %w", err)
	}
	if rd.Len() != 0 {
		return 0, nil, fmt.Errorf("nn: model container has %d trailing bytes", rd.Len())
	}
	return int(k), payload, nil
}

// SaveModel writes the float model — architecture, trained parameters,
// and BatchNorm statistics — in the checksummed container. net must have
// been built from arch.
func SaveModel(w io.Writer, arch *Arch, net *Network) error {
	return writeContainer(w, payloadFloat, encodeFloatModel(arch, net))
}

// LoadModel reads a float model from the checksummed container, rebuilds
// the network, and restores its parameters.
func LoadModel(r io.Reader) (*Arch, *Network, error) {
	kind, payload, err := readContainer(r)
	if err != nil {
		return nil, nil, err
	}
	if kind != payloadFloat {
		return nil, nil, fmt.Errorf("nn: container holds payload kind %d, want a float model (%d) — pass the int8 export to LoadInt8Model instead", kind, payloadFloat)
	}
	return decodeFloatModel(payload)
}

// SaveInt8Model writes the quantized model in the checksummed container.
func SaveInt8Model(w io.Writer, m *Int8Model) error {
	payload, err := appendInt8Model(nil, m)
	if err != nil {
		return err
	}
	return writeContainer(w, payloadInt8, payload)
}

// LoadInt8Model reads a quantized model from the checksummed container —
// the file cmd/serve consumes.
func LoadInt8Model(r io.Reader) (*Int8Model, error) {
	kind, payload, err := readContainer(r)
	if err != nil {
		return nil, err
	}
	if kind != payloadInt8 {
		return nil, fmt.Errorf("nn: container holds payload kind %d, want an int8 model (%d) — export one with cmd/deploy -qout", kind, payloadInt8)
	}
	return readInt8Model(payload)
}
