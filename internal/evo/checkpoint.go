package evo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"solarml/internal/bytecodec"
	"solarml/internal/nas"
	"solarml/internal/obs"
)

// checkpointMagic leads every checkpoint file; checkpointVersion versions
// the container. Engine-state payloads carry the nas genome codec version
// implicitly (every genome is versioned), so a search-space revision is
// rejected at decode, not misparsed.
const (
	checkpointMagic   = "SOLARCKP"
	checkpointVersion = 1
)

// ErrStopped is returned by RunIslands when CheckpointSpec.StopAfterCycle
// asked the run to halt at a checkpoint barrier instead of finishing. The
// written checkpoint is complete; a -resume run continues bit-identically.
var ErrStopped = errors.New("evo: search stopped at checkpoint")

// CheckpointSpec configures periodic checkpointing of an island run.
type CheckpointSpec struct {
	// Path is the checkpoint file. Writes are atomic (temp file + rename in
	// the same directory), so a kill mid-write leaves the previous
	// checkpoint intact.
	Path string
	// Every is the cycle period between checkpoints. A checkpoint is also
	// written right after the population fill (cycle 0), so a kill during
	// early cycles never repeats Phase 1.
	Every int
	// StopAfterCycle, when positive, stops the run gracefully (ErrStopped)
	// at the first checkpoint barrier at or past this cycle — the
	// deterministic stand-in for kill-testing resume in CI, where a real
	// SIGKILL would race the cycle loop.
	StopAfterCycle int
}

// appendState serializes the shard's complete mutable state: the rng
// snapshot, bounds, counters, population and history (genomes via the
// policy's codec, results via the nas result codec), and the policy's own
// per-run state. Population entries are stored as history indices — the
// population is always a subset of history on the originating shard or a
// migrant recorded by another shard, so migrated entries are stored inline
// with a sentinel index.
func (e *engine) appendState(b []byte) ([]byte, error) {
	st := e.rng.Snapshot()
	b = bytecodec.AppendVarint(b, st.Seed)
	b = bytecodec.AppendUvarint(b, st.Draws)
	b = bytecodec.AppendF64(b, e.out.EMin)
	b = bytecodec.AppendF64(b, e.out.EMax)
	b = bytecodec.AppendUvarint(b, uint64(e.out.Evaluations))
	b = bytecodec.AppendUvarint(b, uint64(e.accepted))
	b = bytecodec.AppendUvarint(b, uint64(e.cycle))
	b = bytecodec.AppendUvarint(b, uint64(len(e.out.History)))
	for _, ent := range e.out.History {
		g, err := e.pol.EncodeGenome(ent.Cand)
		if err != nil {
			return nil, err
		}
		b = bytecodec.AppendBytes(b, g)
		b = bytecodec.AppendBytes(b, nas.AppendResult(nil, ent.Res))
	}
	b = bytecodec.AppendUvarint(b, uint64(len(e.population)))
	for _, ent := range e.population {
		g, err := e.pol.EncodeGenome(ent.Cand)
		if err != nil {
			return nil, err
		}
		b = bytecodec.AppendBytes(b, g)
		b = bytecodec.AppendBytes(b, nas.AppendResult(nil, ent.Res))
	}
	b = bytecodec.AppendBytes(b, e.pol.MarshalState())
	return b, nil
}

// restoreState rebuilds the shard from a checkpointed payload and leaves it
// ready to step: rng replayed to the snapshotted draw count, history and
// population decoded through the policy's genome codec, the policy
// re-initialized (Init with the restored population and bounds, then
// UnmarshalState with its checkpointed blob), and the phase-2 span opened
// with a resumed marker.
func (e *engine) restoreState(r *bytecodec.Reader) error {
	seed := r.Varint()
	draws := r.Uvarint()
	e.out.EMin = r.F64()
	e.out.EMax = r.F64()
	e.out.Evaluations = int(r.Uvarint())
	e.accepted = int(r.Uvarint())
	e.cycle = int(r.Uvarint())
	readEntries := func(what string, limit uint64, minCap int) ([]Entry, error) {
		n := r.Uvarint()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if n > limit {
			return nil, fmt.Errorf("implausible %s length %d", what, n)
		}
		out := make([]Entry, 0, max(int(n), minCap))
		for i := uint64(0); i < n; i++ {
			g := r.Bytes()
			resBytes := r.Bytes()
			if r.Err() != nil {
				return nil, r.Err()
			}
			c, err := e.pol.DecodeGenome(g)
			if err != nil {
				return nil, err
			}
			rr := bytecodec.NewReader(resBytes)
			res, err := nas.ReadResult(rr)
			if err != nil {
				return nil, err
			}
			if rr.Len() != 0 {
				return nil, fmt.Errorf("%d trailing bytes after %s result", rr.Len(), what)
			}
			out = append(out, Entry{Cand: c, Res: res})
		}
		return out, nil
	}
	hist, err := readEntries("history", 1<<24, historyCap(e.cfg))
	if err != nil {
		return err
	}
	e.out.History = hist
	pop, err := readEntries("population", 1<<20, 0)
	if err != nil {
		return err
	}
	state := r.Bytes()
	if err := r.Err(); err != nil {
		return err
	}
	if len(pop) != e.cfg.Population {
		return fmt.Errorf("checkpointed population %d does not match configured %d", len(pop), e.cfg.Population)
	}
	e.population = pop
	e.rng = RestoreRNG(RNGState{Seed: seed, Draws: draws})
	e.pol.Init(e.population, e.out.EMin, e.out.EMax)
	if err := e.pol.UnmarshalState(append([]byte(nil), state...)); err != nil {
		return err
	}
	e.search.Event(e.pre+".resume",
		obs.Int("cycle", e.cycle), obs.Int("evaluations", e.out.Evaluations))
	e.startPhase2()
	return nil
}

// checkpointHeader is the config echo every checkpoint carries; resume
// refuses a checkpoint whose search configuration differs from the run's,
// since the PRNG replay would silently diverge.
type checkpointHeader struct {
	Prefix     string
	Population int
	SampleSize int
	Cycles     int
	Seed       int64
	Islands    int
	Interval   int
	Migrants   int
}

func (h checkpointHeader) append(b []byte) []byte {
	b = bytecodec.AppendString(b, h.Prefix)
	b = bytecodec.AppendInt(b, h.Population)
	b = bytecodec.AppendInt(b, h.SampleSize)
	b = bytecodec.AppendInt(b, h.Cycles)
	b = bytecodec.AppendVarint(b, h.Seed)
	b = bytecodec.AppendInt(b, h.Islands)
	b = bytecodec.AppendInt(b, h.Interval)
	b = bytecodec.AppendInt(b, h.Migrants)
	return b
}

func readCheckpointHeader(r *bytecodec.Reader) checkpointHeader {
	return checkpointHeader{
		Prefix:     r.String(),
		Population: r.Int(),
		SampleSize: r.Int(),
		Cycles:     r.Int(),
		Seed:       r.Varint(),
		Islands:    r.Int(),
		Interval:   r.Int(),
		Migrants:   r.Int(),
	}
}

// encodeCheckpoint builds a complete checkpoint: magic, container version,
// config echo, one state payload per island, and a CRC32 (IEEE) trailer over
// everything before it.
func encodeCheckpoint(h checkpointHeader, engines []*engine) ([]byte, error) {
	b := append([]byte(nil), checkpointMagic...)
	b = bytecodec.AppendUvarint(b, checkpointVersion)
	b = h.append(b)
	for _, e := range engines {
		st, err := e.appendState(nil)
		if err != nil {
			return nil, err
		}
		b = bytecodec.AppendBytes(b, st)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b)), nil
}

// decodeCheckpoint verifies the container (magic, version, CRC) and returns
// the config echo plus the per-island state payloads. Payload bytes alias
// data; callers decode before data goes away.
func decodeCheckpoint(data []byte) (checkpointHeader, [][]byte, error) {
	var h checkpointHeader
	if len(data) < len(checkpointMagic)+4 || string(data[:len(checkpointMagic)]) != checkpointMagic {
		return h, nil, fmt.Errorf("not a checkpoint file")
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return h, nil, fmt.Errorf("checksum mismatch (truncated or corrupted checkpoint)")
	}
	r := bytecodec.NewReader(body[len(checkpointMagic):])
	if v := r.Uvarint(); r.Err() == nil && v != checkpointVersion {
		return h, nil, fmt.Errorf("unknown checkpoint version %d (have %d)", v, checkpointVersion)
	}
	h = readCheckpointHeader(r)
	if err := r.Err(); err != nil {
		return h, nil, err
	}
	if h.Islands < 1 || h.Islands > 1<<16 {
		return h, nil, fmt.Errorf("implausible island count %d", h.Islands)
	}
	payloads := make([][]byte, h.Islands)
	for i := range payloads {
		payloads[i] = r.Bytes()
	}
	if err := r.Err(); err != nil {
		return h, nil, err
	}
	if r.Len() != 0 {
		return h, nil, fmt.Errorf("%d trailing bytes after island states", r.Len())
	}
	return h, payloads, nil
}

// writeCheckpointFile writes data atomically: a temp file in the target
// directory, fsync, then rename over the destination.
func writeCheckpointFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
