package nas

import (
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
