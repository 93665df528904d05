package nas

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"solarml/internal/bytecodec"
	"solarml/internal/nn"
)

// TestCloneIndependent pins that a candidate's storage is its own on every
// route a search makes one by: writing a clone's sensing half and body —
// an insert into the body's spare slot included — and rebinding it leaves
// the source's fields, fingerprint, and binding as they were.
func TestCloneIndependent(t *testing.T) {
	for _, space := range []*Space{GestureSpace(), KWSSpace()} {
		rng := rand.New(rand.NewSource(31))
		parent := space.RandomCandidate(rng)
		for i := 0; i < 300; i++ {
			cloned := parent.Clone()
			if err := cloned.Rebind(); err != nil {
				t.Fatalf("%s clone of a valid candidate: %v", space.Task, err)
			}
			sources := map[string]*Candidate{
				"RandomCandidate": space.RandomCandidate(rng),
				"Clone":           cloned,
				"MutateArch":      space.MutateArch(rng, parent),
			}
			if nbs := space.GridNeighbors(parent); len(nbs) > 0 {
				sources["GridNeighbors"] = nbs[rng.Intn(len(nbs))]
			}
			for how, src := range sources {
				checkCloneIndependent(t, space.Task.String()+" "+how, src)
			}
			parent = sources["MutateArch"]
		}
	}
}

// checkCloneIndependent writes a clone of src everywhere a search writes a
// candidate and checks that src does not change.
func checkCloneIndependent(t *testing.T, how string, src *Candidate) {
	t.Helper()
	if !src.bind.bound {
		t.Fatalf("%s: source is unbound", how)
	}
	enc, fp, bind := AppendCandidate(nil, src), src.Fingerprint(), src.bind

	c := src.Clone()
	if c.Arch == src.Arch {
		t.Fatalf("%s: clone shares the Arch", how)
	}
	if c.bind.bound {
		t.Fatalf("%s: clone carries the binding", how)
	}
	// Step the sensing half, so the rebind below rewrites the clone's input
	// shape. Rebind does not range-check sensing, so the steps need not
	// stay in the search space.
	c.Gesture.Channels++
	c.Gesture.RateHz += 2
	c.Audio.StripeMS++
	c.Audio.NumFeatures++
	body := c.Arch.Body
	if len(body) > 0 {
		body[0].K++
		body[len(body)-1].Out++
	}
	if cap(body) == len(body) {
		t.Fatalf("%s: clone body has no spare slot (len %d)", how, len(body))
	}
	c.Arch.Body = slices.Insert(body, len(body)/2, nn.LayerSpec{Kind: nn.KindReLU})
	if len(body) > 0 && &c.Arch.Body[0] != &body[0] {
		t.Fatalf("%s: an insert into the spare slot reallocated the body", how)
	}
	_ = c.Rebind() // the written clone need not materialize
	if slices.Equal(c.Arch.Input, src.Arch.Input) || !c.ownsInput() {
		t.Fatalf("%s: rebind left the clone's input %v (source %v) or moved it out of the candidate",
			how, c.Arch.Input, src.Arch.Input)
	}

	if got := AppendCandidate(nil, src); !bytes.Equal(got, enc) {
		t.Fatalf("%s: writing the clone changed the source\nwas %s\nnow %s", how, decodeString(enc), src)
	}
	if src.Fingerprint() != fp {
		t.Fatalf("%s: writing the clone changed the source fingerprint", how)
	}
	if src.bind != bind {
		t.Fatalf("%s: writing the clone changed the source binding", how)
	}
	if err := BindingMismatch(src); err != nil {
		t.Fatalf("%s: source binding after writing the clone: %v", how, err)
	}
}

// decodeString renders an encoded candidate for a failure message.
func decodeString(enc []byte) string {
	c, err := ReadCandidate(bytecodec.NewReader(enc))
	if err != nil {
		return err.Error()
	}
	return c.String()
}
