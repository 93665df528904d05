package nas_test

import (
	"math/rand"
	"testing"

	"solarml/internal/bytecodec"
	"solarml/internal/evo"
	"solarml/internal/nas"
)

// TestBindingMatchesFresh pins the binding against recomputation on every
// route a search candidate is made by: a bound candidate's fingerprint and
// analysis must equal those computed afresh from its fields, and a clone
// must start unbound.
func TestBindingMatchesFresh(t *testing.T) {
	const perTask = 10_000
	for _, space := range []*nas.Space{nas.GestureSpace(), nas.KWSSpace()} {
		rng := rand.New(rand.NewSource(22))
		fixed := evo.FixedSensing(space, space.RandomCandidate(rng))
		n := 0
		check := func(how string, c *nas.Candidate) {
			t.Helper()
			n++
			if err := nas.BindingMismatch(c); err != nil {
				t.Fatalf("%s %s %s: %v", space.Task, how, c, err)
			}
			if c.Clone().Bound() {
				t.Fatalf("%s %s: clone carries the binding", space.Task, how)
			}
		}
		parent := space.RandomCandidate(rng)
		for n < perTask {
			check("RandomCandidate", space.RandomCandidate(rng))
			child := space.MutateArch(rng, parent)
			check("MutateArch", child)
			for _, nb := range space.GridNeighbors(child) {
				check("GridNeighbors", nb)
			}
			if c := fixed(rng); c != nil {
				check("FixedSensing", c)
			}
			decoded, err := nas.ReadCandidate(bytecodec.NewReader(nas.AppendCandidate(nil, child)))
			if err != nil {
				t.Fatal(err)
			}
			if decoded.Bound() {
				t.Fatal("decoded candidate is bound before validation")
			}
			if err := decoded.Validate(); err != nil {
				t.Fatal(err)
			}
			check("ReadCandidate+Validate", decoded)
			parent = child
		}
	}
}
