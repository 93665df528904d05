package evo

import (
	"fmt"
	"math/rand"

	"solarml/internal/bytecodec"
	"solarml/internal/nas"
	"solarml/internal/obs"
)

// Policy is what distinguishes one search algorithm from another once the
// aging-evolution mechanics are shared: where candidates come from, how they
// are scored, how they mutate, and which entry the search reports as best.
// A Policy instance belongs to exactly one Run — it may carry per-run state
// (normalization bounds, a running energy scale) — and its methods are
// called from the engine goroutine only, never from evaluation workers.
//
// rng discipline: only Fill, CycleScore, and Mutate may consume the rng they
// are handed, and CycleScore runs before the cycle's tournament draws (one
// Perm-equivalent draw sequence into an engine-owned buffer). Any other
// draw would shift the seeded stream and break reproducibility.
type Policy interface {
	// Prefix names the algorithm for spans and metrics ("enas", "munas",
	// "harvnet"): the engine emits <prefix>.search/.phase1/.phase2 spans,
	// <prefix>.cycle events, and <prefix>.* counters.
	Prefix() string
	// Fill draws one population candidate. A nil return counts as a
	// constraint reject (the fixed-sensing baselines return nil when a
	// random architecture does not materialize under their sensing
	// configuration).
	Fill(rng *rand.Rand) *nas.Candidate
	// SearchAttrs returns algorithm-specific attributes for the root
	// search span (eNAS: λ and the grid period).
	SearchAttrs() []obs.Attr
	// Init runs once after the population fill with the filled population
	// and its energy bounds — the Phase 1 normalization bounds policies
	// score against.
	Init(population []Entry, eMin, eMax float64)
	// CycleScore returns the cycle's tournament scorer. It runs before the
	// tournament's draws and is the one place a policy may consume per-cycle
	// randomness (μNAS draws its scalarization weight here). The returned
	// function also ranks grid-mutation batches, so it must embed any
	// infeasibility penalty.
	CycleScore(rng *rand.Rand, cycle int) func(Entry) float64
	// GridCycle reports whether this cycle takes a sensing grid step
	// (eNAS's GRIDMUTATE every R cycles) instead of an architecture
	// morphism. Fixed-sensing policies always return false.
	GridCycle(cycle int) bool
	// Neighbors enumerates the sensing grid around the parent; called only
	// when GridCycle is true.
	Neighbors(parent *nas.Candidate) []*nas.Candidate
	// Mutate applies one architecture morphism to the parent.
	Mutate(rng *rand.Rand, parent *nas.Candidate) *nas.Candidate
	// Accepted observes a child that survived evaluation and entered the
	// population (μNAS updates its running energy scale here).
	Accepted(e Entry)
	// Report returns the policy's current best over the history — each
	// algorithm's reporting convention: best objective for eNAS, best
	// feasible accuracy for μNAS, best A/E for HarvNet — plus the
	// telemetry attributes describing it. The engine calls it once per
	// cycle while recording, once at the end of the search, and (island
	// runs) on population slices to select migrants deterministically.
	Report(history []Entry) (Entry, []obs.Attr)

	// EncodeGenome serializes one of the policy's candidates for
	// checkpoints; DecodeGenome inverts it. The encoding must be a pure
	// function of the candidate (encode→decode→encode byte-identical) and
	// versioned, so a checkpoint from a different search-space revision is
	// rejected instead of misparsed. The repo adapters embed NASGenome,
	// which delegates to the shared nas candidate codec.
	EncodeGenome(c *nas.Candidate) ([]byte, error)
	DecodeGenome(data []byte) (*nas.Candidate, error)

	// MarshalState serializes the policy's mutable per-run state beyond
	// what Init re-derives from the restored population and bounds (μNAS's
	// running energy scale; nil for stateless policies). On resume the
	// engine calls Init first, then UnmarshalState with the checkpointed
	// bytes.
	MarshalState() []byte
	UnmarshalState(data []byte) error
}

// NASGenome implements the Policy genome codec over the shared nas
// candidate encoding. All three repo adapters embed it: their genomes are
// joint sensing+architecture candidates, so one versioned codec covers
// eNAS, μNAS, and HarvNet alike.
type NASGenome struct{}

// EncodeGenome implements Policy.
func (NASGenome) EncodeGenome(c *nas.Candidate) ([]byte, error) {
	return nas.AppendCandidate(nil, c), nil
}

// DecodeGenome implements Policy.
func (NASGenome) DecodeGenome(data []byte) (*nas.Candidate, error) {
	r := bytecodec.NewReader(data)
	c, err := nas.ReadCandidate(r)
	if err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("evo: %d trailing bytes after genome", r.Len())
	}
	return c, nil
}

// StatelessState implements no-op MarshalState/UnmarshalState for policies
// whose Init call fully restores them (eNAS, HarvNet).
type StatelessState struct{}

// MarshalState implements Policy.
func (StatelessState) MarshalState() []byte { return nil }

// UnmarshalState implements Policy.
func (StatelessState) UnmarshalState(data []byte) error {
	if len(data) != 0 {
		return fmt.Errorf("evo: unexpected %d-byte state for a stateless policy", len(data))
	}
	return nil
}

// FixedSensing returns a Fill source that draws a random architecture from
// the space but keeps the given sensing configuration — the candidate
// source of the fixed-sensing baselines (μNAS and HarvNet search the
// architecture only). It returns nil when the pair does not materialize,
// which the engine counts as a reject.
func FixedSensing(space *nas.Space, sensing *nas.Candidate) func(*rand.Rand) *nas.Candidate {
	return func(rng *rand.Rand) *nas.Candidate {
		c := space.RandomCandidate(rng)
		fixed := sensing.Clone()
		fixed.Arch = c.Arch
		if fixed.Rebind() != nil {
			return nil
		}
		return fixed
	}
}
