package nas

import (
	"math/rand"
	"testing"

	"solarml/internal/dataset"
	"solarml/internal/nn"
	"solarml/internal/quant"
)

// staticRejectCandidate is a small bound gesture MLP for the static
// constraint rejection tests.
func staticRejectCandidate(t testing.TB) *Candidate {
	t.Helper()
	c := &Candidate{Task: TaskGesture,
		Gesture: dataset.GestureConfig{Channels: 4, RateHz: 50, Quant: quant.Config{Res: quant.Int, Bits: 8}},
		Arch:    &nn.Arch{Body: []nn.LayerSpec{{Kind: nn.KindDense, Out: 16}}, Classes: 10}}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCheckStaticMessages pins the text of CheckStatic's rejections, byte
// for byte the messages the checks formatted eagerly before they returned
// typed errors.
func TestCheckStaticMessages(t *testing.T) {
	c := staticRejectCandidate(t)
	for _, tc := range []struct {
		ct   Constraints
		want string
	}{
		{Constraints{MemoryBytes: 1 << 30, MaxMACs: 1000}, "nas: 4960 MACs exceeds limit 1000"},
		{Constraints{MemoryBytes: 1000, MaxMACs: 1 << 30}, "nas: 5586 B memory exceeds limit 1000"},
	} {
		err := tc.ct.CheckStatic(c)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%+v: error %q, want %q", tc.ct, err, tc.want)
		}
	}
}

// TestAdmitsAgreesWithCheckStatic holds the verdict to the check it
// screens for, and RandomCandidateWithin to RandomCandidate: on the same
// rng stream, it returns nil exactly where the constraints reject
// RandomCandidate's draw, the same candidate otherwise, and leaves the
// stream where RandomCandidate leaves it.
func TestAdmitsAgreesWithCheckStatic(t *testing.T) {
	for _, space := range []*Space{GestureSpace(), KWSSpace()} {
		ct := DefaultConstraints(space.Task)
		ct.MemoryBytes /= 4 // reject about half the draws
		plain, within := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
		rejects := 0
		for i := 0; i < 500; i++ {
			c := space.RandomCandidate(plain)
			if got, want := ct.Admits(c), ct.CheckStatic(c) == nil; got != want {
				t.Fatalf("%s draw %d: Admits %v, CheckStatic nil %v", space.Task, i, got, want)
			}
			w := space.RandomCandidateWithin(within, ct)
			switch {
			case !ct.Admits(c):
				rejects++
				if w != nil {
					t.Fatalf("%s draw %d: RandomCandidateWithin kept a rejected draw", space.Task, i)
				}
			case w == nil || w.Fingerprint() != c.Fingerprint() || !w.Bound():
				t.Fatalf("%s draw %d: RandomCandidateWithin returned %v, want %v bound", space.Task, i, w, c)
			}
		}
		if plain.Int63() != within.Int63() {
			t.Fatalf("%s: the rng streams diverged", space.Task)
		}
		if rejects == 0 || rejects == 500 {
			t.Fatalf("%s: %d of 500 draws rejected; the check exercises nothing", space.Task, rejects)
		}
	}
	bad := staticRejectCandidate(t).Clone() // unbound
	bad.Arch.Body[0].Out = 0
	if (Constraints{MemoryBytes: 1 << 30, MaxMACs: 1 << 30}).Admits(bad) {
		t.Fatal("Admits passed an architecture that does not materialize")
	}
}
