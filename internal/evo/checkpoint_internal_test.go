package evo

// Internal checkpoint codec pins: encode→decode→encode byte-equality over a
// real filled-and-stepped engine pair, RNG snapshot/restore stream equality,
// and decoder rejection of corrupted containers.

import (
	"bytes"
	"math/rand"
	"testing"

	"solarml/internal/bytecodec"
	"solarml/internal/nas"
	"solarml/internal/obs"
)

// ckptPolicy is a minimal accuracy-objective policy for internal tests.
type ckptPolicy struct {
	NASGenome
	StatelessState
	space *nas.Space
}

func (p *ckptPolicy) Prefix() string                            { return "ckpt" }
func (p *ckptPolicy) Fill(rng *rand.Rand) *nas.Candidate        { return p.space.RandomCandidate(rng) }
func (p *ckptPolicy) SearchAttrs() []obs.Attr                   { return nil }
func (p *ckptPolicy) Init([]Entry, float64, float64)            {}
func (p *ckptPolicy) GridCycle(int) bool                        { return false }
func (p *ckptPolicy) Neighbors(*nas.Candidate) []*nas.Candidate { return nil }
func (p *ckptPolicy) Accepted(Entry)                            {}

func (p *ckptPolicy) CycleScore(*rand.Rand, int) func(*Entry) float64 {
	return func(e *Entry) float64 { return e.Res.Accuracy }
}

func (p *ckptPolicy) Mutate(rng *rand.Rand, parent *nas.Candidate) *nas.Candidate {
	return p.space.MutateArch(rng, parent)
}

func (p *ckptPolicy) Report(history []Entry) (Entry, []obs.Attr) {
	var best Entry
	for _, e := range history {
		if best.Cand == nil || e.Res.Accuracy > best.Res.Accuracy {
			best = e
		}
	}
	return best, nil
}

func ckptEngines(t *testing.T, steps int) ([]*engine, checkpointHeader, Config) {
	t.Helper()
	cfg := Config{
		Population: 8, SampleSize: 3, Cycles: 20, Seed: 11,
		Constraints: nas.DefaultConstraints(nas.TaskGesture),
	}
	h := checkpointHeader{
		Prefix: "ckpt", Population: 8, SampleSize: 3, Cycles: 20,
		Seed: 11, Islands: 2, Interval: 0, Migrants: 1,
	}
	var engines []*engine
	for i := 0; i < 2; i++ {
		icfg := cfg
		icfg.Seed = cfg.Seed + int64(i)
		e, err := newEngine(&ckptPolicy{space: nas.GestureSpace()},
			nas.NewSurrogateEvaluator(nas.NewTruthEnergy()), icfg, nil, nil, i)
		if err != nil {
			t.Fatalf("newEngine: %v", err)
		}
		if err := e.fill(); err != nil {
			t.Fatalf("fill: %v", err)
		}
		for e.cycle < steps {
			e.step()
		}
		engines = append(engines, e)
	}
	return engines, h, cfg
}

// TestCheckpointEncodeDecodeEncode pins the codec's pure-function property:
// restoring a checkpoint into fresh engines and re-encoding reproduces the
// original container byte for byte.
func TestCheckpointEncodeDecodeEncode(t *testing.T) {
	engines, h, cfg := ckptEngines(t, 7)
	data, err := encodeCheckpoint(h, engines)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, payloads, err := decodeCheckpoint(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != h {
		t.Fatalf("decoded header %+v, want %+v", got, h)
	}
	restored := make([]*engine, len(payloads))
	for i, p := range payloads {
		icfg := cfg
		icfg.Seed = cfg.Seed + int64(i)
		e, err := newEngine(&ckptPolicy{space: nas.GestureSpace()},
			nas.NewSurrogateEvaluator(nas.NewTruthEnergy()), icfg, nil, nil, i)
		if err != nil {
			t.Fatalf("newEngine: %v", err)
		}
		if err := e.restoreState(bytecodec.NewReader(p)); err != nil {
			t.Fatalf("restoreState island %d: %v", i, err)
		}
		restored[i] = e
	}
	data2, err := encodeCheckpoint(h, restored)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatalf("re-encoded checkpoint differs: %d vs %d bytes", len(data), len(data2))
	}
}

// TestCheckpointRejectsCorruption pins the container checks: a flipped bit,
// a truncated file, and a wrong magic must all fail decode loudly.
func TestCheckpointRejectsCorruption(t *testing.T) {
	engines, h, _ := ckptEngines(t, 3)
	data, err := encodeCheckpoint(h, engines)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x40
	if _, _, err := decodeCheckpoint(flipped); err == nil {
		t.Error("decode accepted a flipped bit")
	}
	if _, _, err := decodeCheckpoint(data[:len(data)-9]); err == nil {
		t.Error("decode accepted a truncated container")
	}
	bad := append([]byte(nil), data...)
	copy(bad, "NOTACKPT")
	if _, _, err := decodeCheckpoint(bad); err == nil {
		t.Error("decode accepted a wrong magic")
	}
}

// TestRNGSnapshotRestore pins the counting-source contract: the RNG stream
// equals math/rand's for the same seed, and restoring a snapshot resumes
// the stream exactly — including after Perm and Float64 draws.
func TestRNGSnapshotRestore(t *testing.T) {
	ref := rand.New(rand.NewSource(42))
	r := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a, b := ref.Int63(), r.Int63(); a != b {
			t.Fatalf("draw %d: RNG %d != math/rand %d", i, b, a)
		}
	}
	ref.Perm(13)
	r.Perm(13)
	ref.Float64()
	r.Float64()

	st := r.Snapshot()
	r2 := RestoreRNG(st)
	for i := 0; i < 100; i++ {
		a, b := r.Int63(), r2.Int63()
		ra := ref.Int63()
		if a != b || a != ra {
			t.Fatalf("post-restore draw %d: original %d, restored %d, reference %d", i, a, b, ra)
		}
	}
}

// FuzzDecodeCheckpoint: arbitrary bytes must never panic the container
// decoder, and a valid container re-encodes losslessly via the CRC check.
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Add([]byte("SOLARCKP"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, payloads, err := decodeCheckpoint(data)
		if err != nil {
			return
		}
		if len(payloads) != h.Islands {
			t.Fatalf("decode returned %d payloads for %d islands", len(payloads), h.Islands)
		}
	})
}
