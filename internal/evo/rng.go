package evo

import "math/rand"

// RNG is the engine's snapshotable pseudo-random source. It produces exactly
// the stream of rand.New(rand.NewSource(seed)) — the golden seeded searches
// depend on that — while counting every draw the underlying generator makes,
// so its full state serializes to sixteen bytes: (seed, draws). Restoring
// replays the counted draws against a fresh stdlib source, which is cheap
// (one 64-bit add per draw; a paper-scale search makes a few thousand) and
// immune to stdlib internals: no reflection into rngSource, no copied state
// tables, and the Go 1 compatibility promise pins the stream itself.
//
// The embedded *rand.Rand is the engine-facing API — policies keep their
// *rand.Rand signatures — and is safe to snapshot at any point where no
// Rand method is mid-flight, because rand.Rand buffers nothing on the
// Int63/Uint64 path (only Read, which the engine never calls, keeps state
// outside the Source).
type RNG struct {
	*rand.Rand
	src  *countingSource
	seed int64
}

// RNGState is a serializable RNG snapshot.
type RNGState struct {
	Seed  int64
	Draws uint64
}

// countingSource wraps the stdlib source and counts generator steps. Int63
// and Uint64 both advance the lagged-Fibonacci generator by exactly one
// step, so one counter covers every rand.Rand method the engine uses.
type countingSource struct {
	src rand.Source64
	n   uint64
}

func (s *countingSource) Int63() int64 { s.n++; return s.src.Int63() }

func (s *countingSource) Uint64() uint64 { s.n++; return s.src.Uint64() }

func (s *countingSource) Seed(seed int64) { s.src.Seed(seed); s.n = 0 }

// NewRNG returns a snapshotable RNG seeded like rand.NewSource(seed).
func NewRNG(seed int64) *RNG {
	cs := &countingSource{src: rand.NewSource(seed).(rand.Source64)}
	return &RNG{Rand: rand.New(cs), src: cs, seed: seed}
}

// reseed restarts r in the state NewRNG(seed) builds, keeping the
// source's storage: rand.Rand.Seed re-seeds the counting source, which
// zeroes its draw count, and drops any buffered Read bytes.
func (r *RNG) reseed(seed int64) {
	r.Rand.Seed(seed)
	r.seed = seed
}

// Snapshot captures the full generator state.
func (r *RNG) Snapshot() RNGState { return RNGState{Seed: r.seed, Draws: r.src.n} }

// RestoreRNG rebuilds an RNG in the exact state captured by Snapshot: the
// next value drawn equals the next value the snapshotted RNG would have
// produced.
func RestoreRNG(st RNGState) *RNG {
	r := NewRNG(st.Seed)
	for i := uint64(0); i < st.Draws; i++ {
		r.src.src.Int63()
	}
	r.src.n = st.Draws
	return r
}
