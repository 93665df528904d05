package nn

import (
	"math/rand"
	"testing"

	"solarml/internal/compute"
	"solarml/internal/tensor"
)

// TestArenaHitMissAccounting checks the acquisition counters: first touch of
// a (owner, slot) misses, reuse hits, and growing past the retained capacity
// misses again.
func TestArenaHitMissAccounting(t *testing.T) {
	a := &Arena{}
	owner := &struct{}{}

	a.tensor(owner, slotOut, 2, 3)
	if a.Misses() != 1 || a.Hits() != 0 {
		t.Fatalf("first acquire: hits=%d misses=%d, want 0/1", a.Hits(), a.Misses())
	}
	a.tensor(owner, slotOut, 2, 3)
	if a.Misses() != 1 || a.Hits() != 1 {
		t.Fatalf("reuse: hits=%d misses=%d, want 1/1", a.Hits(), a.Misses())
	}
	// A smaller request reslices the retained buffer: still a hit.
	a.tensor(owner, slotOut, 1, 3)
	if a.Misses() != 1 || a.Hits() != 2 {
		t.Fatalf("shrink: hits=%d misses=%d, want 2/1", a.Hits(), a.Misses())
	}
	// Growing past capacity re-allocates: a miss.
	a.tensor(owner, slotOut, 4, 5)
	if a.Misses() != 2 || a.Hits() != 2 {
		t.Fatalf("grow: hits=%d misses=%d, want 2/2", a.Hits(), a.Misses())
	}
	// A different slot of the same owner is its own buffer.
	a.tensor(owner, slotDX, 4, 5)
	if a.Misses() != 3 {
		t.Fatalf("new slot: misses=%d, want 3", a.Misses())
	}
}

// TestArenaReusesBackingArray checks steady-state reuse really is in place:
// the same (owner, slot) request returns the same backing array, including
// for the smaller tail-batch shape.
func TestArenaReusesBackingArray(t *testing.T) {
	a := &Arena{}
	owner := &struct{}{}
	t1 := a.tensor(owner, slotOut, 4, 6)
	t2 := a.tensor(owner, slotOut, 4, 6)
	if &t1.Data[0] != &t2.Data[0] {
		t.Fatal("same-shape reuse returned a different backing array")
	}
	t3 := a.tensor(owner, slotOut, 2, 6)
	if &t3.Data[0] != &t1.Data[0] {
		t.Fatal("tail-batch reslice returned a different backing array")
	}
	if len(t3.Data) != 12 || t3.Shape[0] != 2 || t3.Shape[1] != 6 {
		t.Fatalf("tail-batch tensor has len %d shape %v", len(t3.Data), t3.Shape)
	}
}

// TestArenaZeroFills checks every acquire returns memory indistinguishable
// from a fresh allocation — the property the bit-identity contract rests on.
func TestArenaZeroFills(t *testing.T) {
	a := &Arena{}
	owner := &struct{}{}
	tt := a.tensor(owner, slotOut, 3, 3)
	for i := range tt.Data {
		tt.Data[i] = float64(i) + 1
	}
	f := a.floats(owner, slotStd, 5)
	for i := range f {
		f[i] = 7
	}
	is := a.intsBuf(owner, slotArg, 5)
	for i := range is {
		is[i] = 7
	}
	bs := a.boolsBuf(owner, slotMask, 5)
	for i := range bs {
		bs[i] = true
	}

	tt = a.tensor(owner, slotOut, 3, 3)
	for i, v := range tt.Data {
		if v != 0 {
			t.Fatalf("reused tensor element %d = %v, want 0", i, v)
		}
	}
	for i, v := range a.floats(owner, slotStd, 4) {
		if v != 0 {
			t.Fatalf("reused float %d = %v, want 0", i, v)
		}
	}
	for i, v := range a.intsBuf(owner, slotArg, 4) {
		if v != 0 {
			t.Fatalf("reused int %d = %v, want 0", i, v)
		}
	}
	for i, v := range a.boolsBuf(owner, slotMask, 4) {
		if v {
			t.Fatalf("reused bool %d = true, want false", i)
		}
	}
}

// TestArenaViewVolumeMismatchPanics checks the view guard: a header whose
// shape does not match the data length must refuse rather than alias.
func TestArenaViewVolumeMismatchPanics(t *testing.T) {
	a := &Arena{}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched view did not panic")
		}
	}()
	a.view(&struct{}{}, slotView, make([]float64, 10), 3, 4)
}

// TestTrainStepSteadyStateAllocs pins the arena's headline: the steady-state
// training step performs zero heap allocations, at one worker and with the
// parallel pool.
func TestTrainStepSteadyStateAllocs(t *testing.T) {
	for _, workers := range []int{1, 2} {
		net := buildComputeTestNet()
		net.Init(rand.New(rand.NewSource(5)))
		net.SetCompute(compute.NewContextFor(workers, nil))
		rng := rand.New(rand.NewSource(3))
		x := tensor.New(6, 1, 9, 11)
		x.RandFill(rng, 1)
		y := make([]int, 6)
		for i := range y {
			y[i] = rng.Intn(10)
		}
		params := net.Params()
		opt := &SGD{LR: 0.01, Momentum: 0.9}
		net.trainStep(x, y, params, opt) // warm arena and closures

		allocs := testing.AllocsPerRun(10, func() {
			net.trainStep(x, y, params, opt)
		})
		// The parallel pool may very occasionally grow a runtime sudog on a
		// blocked channel send; everything under our control is zero.
		limit := 0.0
		if workers > 1 {
			limit = 1
		}
		if allocs > limit {
			t.Errorf("workers=%d: steady-state train step allocates %.1f times, want ≤%.0f",
				workers, allocs, limit)
		}
	}
}

// TestMultiExitTrainStepSteadyStateAllocs is the multi-exit counterpart
// of TestTrainStepSteadyStateAllocs: once the arena is warm, a joint step
// of a 2-exit network allocates nothing, its stage outputs included.
func TestMultiExitTrainStepSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	x, y := barDataset(rng, 16, 8)
	m, err := NewMultiExit(barArch(8), []int{2})
	if err != nil {
		t.Fatal(err)
	}
	m.Init(rng)
	params := m.Params()
	opt := &SGD{LR: 0.05, Momentum: 0.9}
	m.trainStep(x, y, params, opt) // warm arena and closures
	if allocs := testing.AllocsPerRun(10, func() { m.trainStep(x, y, params, opt) }); allocs != 0 {
		t.Errorf("steady-state multi-exit train step allocates %.1f times, want 0", allocs)
	}
}

// TestAccuracyChunkAllocs checks evaluation stays allocation-free once the
// arena's staging view and layer buffers are warm.
func TestAccuracyChunkAllocs(t *testing.T) {
	net := buildComputeTestNet()
	net.Init(rand.New(rand.NewSource(5)))
	net.SetCompute(compute.NewContextFor(1, nil))
	rng := rand.New(rand.NewSource(4))
	x := tensor.New(40, 1, 9, 11) // 32-chunk plus a tail chunk of 8
	x.RandFill(rng, 1)
	y := make([]int, 40)
	for i := range y {
		y[i] = rng.Intn(10)
	}
	net.Accuracy(x, y) // warm
	allocs := testing.AllocsPerRun(10, func() {
		net.Accuracy(x, y)
	})
	if allocs > 0 {
		t.Errorf("Accuracy allocates %.1f times per call, want 0", allocs)
	}
}

// freshArena empties net's arena, so the next step allocates every buffer
// new and zeroed: the fresh-allocation oracle that the reuse paths are
// compared against, independent of the reuse logic.
func freshArena(net *Network) { net.arena = Arena{} }

// fitReference replicates the pre-arena Fit loop exactly — same rng call
// order, fresh staging tensors, a fresh arena every step, public
// CrossEntropy, throwaway clipper — so Fit's arena path can be compared
// against it bit for bit.
func fitReference(net *Network, inputs *tensor.Tensor, labels []int, cfg TrainConfig) float64 {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	opt := &SGD{LR: cfg.LR, Momentum: cfg.Momentum}
	params := net.Params()
	total := inputs.Shape[0]
	sample := len(inputs.Data) / total
	order := rng.Perm(total)
	var lastLoss float64
	for ep := 0; ep < cfg.Epochs; ep++ {
		rng.Shuffle(total, func(i, j int) { order[i], order[j] = order[j], order[i] })
		epochLoss, batches := 0.0, 0
		for start := 0; start < total; start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > total {
				end = total
			}
			bs := end - start
			bshape := append([]int{bs}, net.InShape...)
			bx := tensor.New(bshape...)
			by := make([]int, bs)
			for bi := 0; bi < bs; bi++ {
				src := order[start+bi]
				copy(bx.Data[bi*sample:(bi+1)*sample], inputs.Data[src*sample:(src+1)*sample])
				by[bi] = labels[src]
			}
			net.ZeroGrads()
			freshArena(net)
			logits := net.Forward(bx, true)
			loss, grad := CrossEntropy(logits, by)
			for li := len(net.Layers) - 1; li >= 0; li-- {
				grad = net.Layers[li].Backward(grad)
			}
			var clip gradClipper
			clip.clip(serialContext, params, clipNorm)
			opt.StepCtx(serialContext, params)
			epochLoss += loss
			batches++
		}
		lastLoss = epochLoss / float64(batches)
	}
	return lastLoss
}

// edgeBatchData builds a small labelled dataset of the compute-test net's
// input shape.
func edgeBatchData(total int) (*tensor.Tensor, []int) {
	rng := rand.New(rand.NewSource(11))
	x := tensor.New(total, 1, 9, 11)
	x.RandFill(rng, 1)
	y := make([]int, total)
	for i := range y {
		y[i] = rng.Intn(10)
	}
	return x, y
}

// checkFitMatchesReference trains two identically-initialized nets — one
// through Fit (arena installed) and one through the fresh-allocation
// reference loop — and requires bitwise-equal losses and parameters.
func checkFitMatchesReference(t *testing.T, total int, cfg TrainConfig) {
	t.Helper()
	x, y := edgeBatchData(total)

	ref := buildComputeTestNet()
	ref.Init(rand.New(rand.NewSource(21)))
	wantLoss := fitReference(ref, x, y, cfg)

	got := buildComputeTestNet()
	got.Init(rand.New(rand.NewSource(21)))
	gotLoss := got.Fit(x, y, cfg)

	if wantLoss != gotLoss {
		t.Fatalf("loss differs: reference %v vs Fit %v", wantLoss, gotLoss)
	}
	refParams, gotParams := ref.Params(), got.Params()
	for i := range refParams {
		tensorsBitEqual(t, "param value", refParams[i].Value, gotParams[i].Value)
		tensorsBitEqual(t, "param momentum", refParams[i].Momentum, gotParams[i].Momentum)
	}
}

// TestFitTailBatchBitIdentical covers total % BatchSize != 0: the last
// minibatch of each epoch reslices the arena staging buffers to the smaller
// shape and must reproduce the fresh-allocation loop exactly.
func TestFitTailBatchBitIdentical(t *testing.T) {
	checkFitMatchesReference(t, 10, TrainConfig{Epochs: 2, BatchSize: 4, LR: 0.05, Momentum: 0.9, Seed: 7})
}

// TestFitBatchLargerThanTotalBitIdentical covers BatchSize > total: every
// epoch is one undersized batch.
func TestFitBatchLargerThanTotalBitIdentical(t *testing.T) {
	checkFitMatchesReference(t, 5, TrainConfig{Epochs: 2, BatchSize: 32, LR: 0.05, Momentum: 0.9, Seed: 9})
}

// TestArenaBatchShapeChangeBitIdentical runs the same network through batch
// sizes 8 → 3 → 8 reusing its arena and compares logits, input gradients
// and parameter gradients against a fresh-allocation twin (a fresh arena
// every step) at every step: shrinking and re-growing the cached buffers
// must not leak state.
func TestArenaBatchShapeChangeBitIdentical(t *testing.T) {
	withArena := buildComputeTestNet()
	withArena.Init(rand.New(rand.NewSource(31)))

	plain := buildComputeTestNet()
	plain.Init(rand.New(rand.NewSource(31)))

	rng := rand.New(rand.NewSource(33))
	for _, bs := range []int{8, 3, 8, 5} {
		x := tensor.New(bs, 1, 9, 11)
		x.RandFill(rng, 1)
		labels := make([]int, bs)
		for i := range labels {
			labels[i] = rng.Intn(10)
		}
		freshArena(plain)
		wantLogits, wantDx, wantGrads := trainStepBitwise(plain, x, labels)
		gotLogits, gotDx, gotGrads := trainStepBitwise(withArena, x, labels)
		tensorsBitEqual(t, "logits", wantLogits, gotLogits)
		tensorsBitEqual(t, "dx", wantDx, gotDx)
		for i := range wantGrads {
			tensorsBitEqual(t, "grad", wantGrads[i], gotGrads[i])
		}
	}
}

// TestFitWithArenaAndParallelBackendBitIdentical is the end-to-end
// determinism claim: Fit with an arena and a multi-worker backend reproduces
// the fresh-allocation serial reference bit for bit.
func TestFitWithArenaAndParallelBackendBitIdentical(t *testing.T) {
	cfg := TrainConfig{Epochs: 2, BatchSize: 4, LR: 0.05, Momentum: 0.9, Seed: 17}
	x, y := edgeBatchData(10)

	ref := buildComputeTestNet()
	ref.Init(rand.New(rand.NewSource(41)))
	wantLoss := fitReference(ref, x, y, cfg)

	got := buildComputeTestNet()
	got.Init(rand.New(rand.NewSource(41)))
	got.SetCompute(compute.NewContextFor(3, nil))
	gotLoss := got.Fit(x, y, cfg)

	if wantLoss != gotLoss {
		t.Fatalf("loss differs: serial reference %v vs parallel arena Fit %v", wantLoss, gotLoss)
	}
	refParams, gotParams := ref.Params(), got.Params()
	for i := range refParams {
		tensorsBitEqual(t, "param value", refParams[i].Value, gotParams[i].Value)
	}
}
