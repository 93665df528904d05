package nas

import (
	"math"
	"math/rand"
	"testing"

	"solarml/internal/dataset"
	"solarml/internal/dsp"
	"solarml/internal/nn"
	"solarml/internal/obs"
	"solarml/internal/quant"
)

func TestRandomCandidatesValid(t *testing.T) {
	for _, space := range []*Space{GestureSpace(), KWSSpace()} {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 50; i++ {
			c := space.RandomCandidate(rng)
			if err := c.Validate(); err != nil {
				t.Fatalf("%s candidate %d invalid: %v", space.Task, i, err)
			}
			if c.Task != space.Task {
				t.Fatal("task mismatch")
			}
		}
	}
}

func TestRandomSensingWithinTableII(t *testing.T) {
	space := GestureSpace()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		c := space.RandomCandidate(rng)
		if c.Gesture.Channels < 1 || c.Gesture.Channels > 9 {
			t.Fatalf("channels %d", c.Gesture.Channels)
		}
		if c.Gesture.RateHz < 10 || c.Gesture.RateHz > 200 {
			t.Fatalf("rate %d", c.Gesture.RateHz)
		}
		if err := c.Gesture.Quant.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	kspace := KWSSpace()
	for i := 0; i < 200; i++ {
		c := kspace.RandomCandidate(rng)
		if c.Audio.StripeMS < 10 || c.Audio.StripeMS > 30 {
			t.Fatalf("stripe %d", c.Audio.StripeMS)
		}
		if c.Audio.DurationMS < 18 || c.Audio.DurationMS > 30 {
			t.Fatalf("duration %d", c.Audio.DurationMS)
		}
		if c.Audio.NumFeatures < 10 || c.Audio.NumFeatures > 40 {
			t.Fatalf("features %d", c.Audio.NumFeatures)
		}
	}
}

func TestMutateArchProducesValidDistinct(t *testing.T) {
	space := GestureSpace()
	rng := rand.New(rand.NewSource(3))
	parent := space.RandomCandidate(rng)
	for i := 0; i < 50; i++ {
		child := space.MutateArch(rng, parent)
		if err := child.Validate(); err != nil {
			t.Fatalf("mutant %d invalid: %v", i, err)
		}
		if child.Fingerprint() == parent.Fingerprint() {
			t.Fatalf("mutant %d identical to parent", i)
		}
		// Sensing must be untouched by architecture morphisms.
		if child.Gesture != parent.Gesture {
			t.Fatal("MutateArch must not touch sensing parameters")
		}
		parent = child
	}
}

func TestGestureSensingMorphismStepSizes(t *testing.T) {
	// Table II: n±1, r±2, q±1 (or representation replace), one axis per
	// grid neighbour.
	space := GestureSpace()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		parent := space.RandomCandidate(rng)
		for _, child := range space.GridNeighbors(parent) {
			dn := child.Gesture.Channels - parent.Gesture.Channels
			dr := child.Gesture.RateHz - parent.Gesture.RateHz
			if dn != 0 && dn != 1 && dn != -1 {
				t.Fatalf("channel step %d", dn)
			}
			if dr != 0 && dr != 2 && dr != -2 {
				t.Fatalf("rate step %d", dr)
			}
			if child.Gesture.Quant.Res == parent.Gesture.Quant.Res {
				dq := child.Gesture.Quant.Bits - parent.Gesture.Quant.Bits
				if dq < -1 || dq > 1 {
					t.Fatalf("quant step %d", dq)
				}
			}
		}
	}
}

func TestGridNeighborsValidAndLocal(t *testing.T) {
	space := KWSSpace()
	rng := rand.New(rand.NewSource(6))
	parent := space.RandomCandidate(rng)
	neighbors := space.GridNeighbors(parent)
	if len(neighbors) == 0 {
		t.Fatal("interior point must have neighbors")
	}
	for _, nb := range neighbors {
		if err := nb.Validate(); err != nil {
			t.Fatal(err)
		}
		dist := abs(nb.Audio.StripeMS-parent.Audio.StripeMS) +
			abs(nb.Audio.DurationMS-parent.Audio.DurationMS) +
			abs(nb.Audio.NumFeatures-parent.Audio.NumFeatures)
		if dist != 1 {
			t.Fatalf("grid neighbor at distance %d", dist)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestGridNeighborsRespectBoundaries(t *testing.T) {
	space := GestureSpace()
	c := &Candidate{Task: TaskGesture, Arch: &nn.Arch{
		Body:    []nn.LayerSpec{{Kind: nn.KindDense, Out: 8}},
		Classes: 10,
	}}
	c.Gesture = dataset.GestureConfig{Channels: 9, RateHz: 200,
		Quant: quant.Config{Res: quant.Float, Bits: 32}}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, nb := range space.GridNeighbors(c) {
		if err := nb.Validate(); err != nil {
			t.Fatalf("corner neighbor invalid: %v", err)
		}
	}
}

func TestConstraintsStatic(t *testing.T) {
	ct := DefaultConstraints(TaskGesture)
	if ct.MemoryBytes != 100*1024 || ct.MaxMACs != 30_000_000 {
		t.Fatalf("defaults %+v", ct)
	}
	if ct.MaxError != 0.25 {
		t.Fatalf("gesture error cap %v", ct.MaxError)
	}
	if DefaultConstraints(TaskKWS).MaxError != 0.30 {
		t.Fatal("KWS error cap must be 0.3")
	}
	small := &Candidate{Task: TaskGesture,
		Gesture: dataset.GestureConfig{Channels: 4, RateHz: 50, Quant: quant.Config{Res: quant.Int, Bits: 8}},
		Arch:    &nn.Arch{Body: []nn.LayerSpec{{Kind: nn.KindDense, Out: 16}}, Classes: 10}}
	if err := small.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := ct.CheckStatic(small); err != nil {
		t.Fatalf("small model should pass: %v", err)
	}
	huge := small.Clone()
	huge.Arch.Body = []nn.LayerSpec{
		{Kind: nn.KindDense, Out: 4096}, {Kind: nn.KindDense, Out: 4096},
		{Kind: nn.KindDense, Out: 4096},
	}
	if err := huge.Rebind(); err != nil {
		t.Fatal(err)
	}
	if err := ct.CheckStatic(huge); err == nil {
		t.Fatal("huge model should violate constraints")
	}
}

func TestCheckAccuracy(t *testing.T) {
	ct := DefaultConstraints(TaskGesture)
	if err := ct.CheckAccuracy(0.80); err != nil {
		t.Fatal("0.80 accuracy meets 0.25 error cap")
	}
	if err := ct.CheckAccuracy(0.70); err == nil {
		t.Fatal("0.70 accuracy violates 0.25 error cap")
	}
	for _, acc := range []float64{0, 0.5, 0.7, 0.75, 0.7500001, 0.8, 1, math.NaN(), math.Inf(-1)} {
		if ct.Feasible(acc) != (ct.CheckAccuracy(acc) == nil) {
			t.Errorf("Feasible(%v) = %v disagrees with CheckAccuracy", acc, ct.Feasible(acc))
		}
	}
}

func TestCalibrateEnergyProducesUsableModels(t *testing.T) {
	space := GestureSpace()
	fe, err := CalibrateEnergy(space, 150, true, true, 7)
	if err != nil {
		t.Fatal(err)
	}
	if fe.Gesture == nil {
		t.Fatal("gesture sensing estimator missing")
	}
	// Sanity: predictions positive and ordered for a small vs large model.
	smallMACs := nn.KindMACs{}.With(nn.KindConv, 50_000)
	bigMACs := nn.KindMACs{}.With(nn.KindConv, 500_000)
	if fe.Infer.Predict(smallMACs) >= fe.Infer.Predict(bigMACs) {
		t.Fatal("fitted inference model must be increasing in MACs")
	}
	cheap := dataset.GestureConfig{Channels: 1, RateHz: 10, Quant: quant.Config{Res: quant.Int, Bits: 1}}
	rich := dataset.GestureConfig{Channels: 9, RateHz: 200, Quant: quant.Config{Res: quant.Float, Bits: 32}}
	if fe.Gesture.Predict(cheap) >= fe.Gesture.Predict(rich) {
		t.Fatal("fitted sensing model must be increasing in fidelity")
	}
}

func TestCalibrateEnergyWithoutSensing(t *testing.T) {
	fe, err := CalibrateEnergy(KWSSpace(), 100, false, false, 8)
	if err != nil {
		t.Fatal(err)
	}
	if fe.Audio != nil || fe.Gesture != nil {
		t.Fatal("sensing estimators must be absent")
	}
	c := KWSSpace().RandomCandidate(rand.New(rand.NewSource(9)))
	if fe.SensingEnergy(c) != 0 {
		t.Fatal("μNAS-style model must report zero sensing energy")
	}
}

func TestSurrogateDeterministic(t *testing.T) {
	space := GestureSpace()
	rng := rand.New(rand.NewSource(10))
	ev := NewSurrogateEvaluator(NewTruthEnergy())
	c := space.RandomCandidate(rng)
	a, err := ev.Evaluate(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ev.Evaluate(c.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if a.Accuracy != b.Accuracy || a.EnergyJ != b.EnergyJ {
		t.Fatal("surrogate must be deterministic per candidate")
	}
}

func TestSurrogateMonotoneInSensingFidelity(t *testing.T) {
	ev := &SurrogateEvaluator{Energy: NewTruthEnergy(), NoiseSD: 0}
	arch := []nn.LayerSpec{
		{Kind: nn.KindConv, Out: 16, K: 3, Stride: 1, Pad: 1},
		{Kind: nn.KindReLU},
		{Kind: nn.KindDense, Out: 32},
	}
	mk := func(ch, rate, bits int) *Candidate {
		c := &Candidate{Task: TaskGesture,
			Gesture: dataset.GestureConfig{Channels: ch, RateHz: rate,
				Quant: quant.Config{Res: quant.Int, Bits: bits}},
			Arch: &nn.Arch{Body: append([]nn.LayerSpec(nil), arch...), Classes: 10}}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		return c
	}
	rich, err := ev.Evaluate(mk(9, 150, 8))
	if err != nil {
		t.Fatal(err)
	}
	poor, err := ev.Evaluate(mk(1, 20, 2))
	if err != nil {
		t.Fatal(err)
	}
	if poor.Accuracy >= rich.Accuracy {
		t.Fatalf("poor sensing acc %.3f should be below rich %.3f", poor.Accuracy, rich.Accuracy)
	}
	if poor.SensingJ >= rich.SensingJ {
		t.Fatal("poor sensing must cost less energy")
	}
}

func TestSurrogateMonotoneInCapacity(t *testing.T) {
	ev := &SurrogateEvaluator{Energy: NewTruthEnergy(), NoiseSD: 0}
	mk := func(width int) *Candidate {
		c := &Candidate{Task: TaskKWS,
			Audio: dsp.FrontEndConfig{SampleRate: dataset.AudioRateHz, StripeMS: 20, DurationMS: 25, NumFeatures: 13},
			Arch: &nn.Arch{Body: []nn.LayerSpec{
				{Kind: nn.KindConv, Out: width, K: 3, Stride: 1, Pad: 1},
				{Kind: nn.KindReLU},
				{Kind: nn.KindMaxPool, K: 2},
			}, Classes: 10}}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		return c
	}
	small, err := ev.Evaluate(mk(2))
	if err != nil {
		t.Fatal(err)
	}
	big, err := ev.Evaluate(mk(16))
	if err != nil {
		t.Fatal(err)
	}
	if big.Accuracy <= small.Accuracy {
		t.Fatalf("capacity should raise accuracy: %.3f vs %.3f", big.Accuracy, small.Accuracy)
	}
	if big.InferJ <= small.InferJ {
		t.Fatal("capacity must cost inference energy")
	}
}

func TestTrainEvaluatorOnGesture(t *testing.T) {
	if testing.Short() {
		t.Skip("training evaluation is slow")
	}
	full := dataset.BuildGestureSet(150, 500, 11)
	train, test := full.Split(3)
	ev := &TrainEvaluator{
		Energy:       NewTruthEnergy(),
		GestureTrain: train,
		GestureTest:  test,
		Epochs:       6,
		LR:           0.05,
		Seed:         12,
	}
	c := &Candidate{Task: TaskGesture,
		Gesture: dataset.GestureConfig{Channels: 9, RateHz: 50, Quant: quant.Config{Res: quant.Int, Bits: 8}},
		Arch: &nn.Arch{Body: []nn.LayerSpec{
			{Kind: nn.KindConv, Out: 8, K: 3, Stride: 1, Pad: 1},
			{Kind: nn.KindReLU},
			{Kind: nn.KindMaxPool, K: 2},
		}, Classes: 10}}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := ev.Evaluate(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy < 0.5 {
		t.Fatalf("trained accuracy %.2f too low — training pipeline broken", res.Accuracy)
	}
	if res.EnergyJ <= 0 || res.SensingJ <= 0 || res.InferJ <= 0 {
		t.Fatalf("energies %+v", res)
	}
	if math.Abs(res.EnergyJ-(res.SensingJ+res.InferJ)) > 1e-12 {
		t.Fatal("EnergyJ must be the sum of parts")
	}
}

// TestTrainEvaluatorEmptySplitErrors checks that a dataset too small for
// the 4:1 split (its test half is empty) makes Evaluate return an error
// instead of panicking while materializing it.
func TestTrainEvaluatorEmptySplitErrors(t *testing.T) {
	train, test := dataset.BuildGestureSet(30, 500, 13).Split(4)
	ev := &TrainEvaluator{GestureTrain: train, GestureTest: test, Epochs: 1, Seed: 1}
	c := &Candidate{Task: TaskGesture,
		Gesture: dataset.GestureConfig{Channels: 2, RateHz: 20, Quant: quant.Config{Res: quant.Int, Bits: 4}},
		Arch:    &nn.Arch{Body: []nn.LayerSpec{{Kind: nn.KindDense, Out: 8}}, Classes: 10}}
	if _, err := ev.Evaluate(c); err == nil {
		t.Fatal("evaluating over an empty test split must fail")
	}
}

// TestTrainEvaluatorArenaCounters checks that every candidate network's
// step-arena tallies land on the evaluator's shared nn.arena_hits /
// nn.arena_misses counters: one registry across two evaluations holds the
// sum of the two single-evaluation registries.
func TestTrainEvaluatorArenaCounters(t *testing.T) {
	train, test := dataset.BuildGestureSet(40, 500, 13).Split(4)
	cand := func(out int) *Candidate {
		return &Candidate{Task: TaskGesture,
			Gesture: dataset.GestureConfig{Channels: 2, RateHz: 20, Quant: quant.Config{Res: quant.Int, Bits: 4}},
			Arch:    &nn.Arch{Body: []nn.LayerSpec{{Kind: nn.KindDense, Out: out}}, Classes: 10}}
	}
	evaluate := func(reg *obs.Registry, outs ...int) (hits, misses int64) {
		ev := &TrainEvaluator{GestureTrain: train, GestureTest: test, Epochs: 1, Seed: 1, Metrics: reg}
		for _, out := range outs {
			if _, err := ev.Evaluate(cand(out)); err != nil {
				t.Fatal(err)
			}
		}
		return reg.Counter("nn.arena_hits").Value(), reg.Counter("nn.arena_misses").Value()
	}
	h1, m1 := evaluate(obs.NewRegistry(), 8)
	h2, m2 := evaluate(obs.NewRegistry(), 16)
	h, m := evaluate(obs.NewRegistry(), 8, 16)
	if h1 == 0 || m1 == 0 || h2 == 0 || m2 == 0 {
		t.Fatalf("single evaluations published %d/%d and %d/%d hits/misses, want all nonzero", h1, m1, h2, m2)
	}
	if h != h1+h2 || m != m1+m2 {
		t.Fatalf("shared registry holds %d/%d hits/misses, want %d/%d", h, m, h1+h2, m1+m2)
	}
}

func TestTrainEvaluatorCachesMaterializations(t *testing.T) {
	full := dataset.BuildGestureSet(30, 500, 13)
	train, test := full.Split(3)
	ev := &TrainEvaluator{GestureTrain: train, GestureTest: test, Epochs: 1, Seed: 1}
	c := &Candidate{Task: TaskGesture,
		Gesture: dataset.GestureConfig{Channels: 2, RateHz: 20, Quant: quant.Config{Res: quant.Int, Bits: 4}},
		Arch:    &nn.Arch{Body: []nn.LayerSpec{{Kind: nn.KindDense, Out: 8}}, Classes: 10}}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Evaluate(c); err != nil {
		t.Fatal(err)
	}
	if len(ev.cache) != 1 {
		t.Fatalf("cache size %d, want 1", len(ev.cache))
	}
	// Same sensing, different arch: cache must be reused, not grown.
	c2 := c.Clone()
	c2.Arch.Body = []nn.LayerSpec{{Kind: nn.KindDense, Out: 16}}
	if err := c2.Rebind(); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Evaluate(c2); err != nil {
		t.Fatal(err)
	}
	if len(ev.cache) != 1 {
		t.Fatalf("cache grew to %d for identical sensing", len(ev.cache))
	}
}

func TestCandidateFingerprintSensitivity(t *testing.T) {
	space := GestureSpace()
	rng := rand.New(rand.NewSource(14))
	c := space.RandomCandidate(rng)
	same := c.Clone()
	if c.Fingerprint() != same.Fingerprint() {
		t.Fatal("clone must share fingerprint")
	}
	neighbors := space.GridNeighbors(c)
	if len(neighbors) == 0 {
		t.Fatal("no sensing neighbours")
	}
	for _, nb := range neighbors {
		if nb.Fingerprint() == c.Fingerprint() {
			t.Fatalf("sensing change %s → %s must alter fingerprint", c.SensingString(), nb.SensingString())
		}
	}
}

func TestRebindSyncsInputShape(t *testing.T) {
	c := &Candidate{Task: TaskGesture,
		Gesture: dataset.GestureConfig{Channels: 5, RateHz: 80, Quant: quant.Config{Res: quant.Int, Bits: 8}},
		Arch:    &nn.Arch{Body: []nn.LayerSpec{{Kind: nn.KindDense, Out: 8}}, Classes: 10}}
	if err := c.Rebind(); err != nil {
		t.Fatal(err)
	}
	if c.Arch.Input[1] != 5 || c.Arch.Input[2] != 120 {
		t.Fatalf("input shape %v", c.Arch.Input)
	}
	c.Gesture.Channels = 3
	if err := c.Rebind(); err != nil {
		t.Fatal(err)
	}
	if c.Arch.Input[1] != 3 {
		t.Fatalf("rebind did not update shape: %v", c.Arch.Input)
	}
}

func TestTrainEvaluatorOnKWS(t *testing.T) {
	if testing.Short() {
		t.Skip("training evaluation is slow")
	}
	full := dataset.BuildKWSSet(150, 17)
	train, test := full.Split(3)
	ev := &TrainEvaluator{
		Energy:   NewTruthEnergy(),
		KWSTrain: train,
		KWSTest:  test,
		Epochs:   6,
		LR:       0.01,
		Seed:     17,
	}
	c := &Candidate{Task: TaskKWS,
		Audio: dsp.FrontEndConfig{SampleRate: dataset.AudioRateHz,
			StripeMS: 20, DurationMS: 25, NumFeatures: 13},
		Arch: &nn.Arch{Body: []nn.LayerSpec{
			{Kind: nn.KindConv, Out: 6, K: 3, Stride: 1, Pad: 1},
			{Kind: nn.KindReLU},
			{Kind: nn.KindMaxPool, K: 2},
			{Kind: nn.KindDense, Out: 32},
			{Kind: nn.KindReLU},
		}, Classes: 10}}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := ev.Evaluate(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy < 0.4 {
		t.Fatalf("KWS training accuracy %.3f too low", res.Accuracy)
	}
	if res.SensingJ < 4e-3 {
		t.Fatalf("KWS sensing energy %.1f mJ implausibly low", res.SensingJ*1e3)
	}
}
