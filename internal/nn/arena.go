package nn

import (
	"fmt"

	"solarml/internal/tensor"
)

// Arena is a shape-keyed cache of per-step working buffers owned by one
// network: layer outputs, input gradients, ReLU masks, pooling
// argmax indices, batch-norm statistics, and the Fit/Accuracy staging
// tensors. Each buffer is addressed by (owner, slot) — the layer pointer
// plus a small tag distinguishing the buffers one layer holds live at the
// same time — so two users can never alias each other's memory.
//
// Buffers are grown on demand, reused across steps and epochs, and
// invalidated (re-grown) only when a request exceeds the retained capacity;
// a smaller batch (the tail minibatch of an epoch) reslices the existing
// backing array, so the steady-state training loop performs no heap
// allocations at all. Every acquire returns zero-filled memory, exactly
// like a fresh tensor.New/make, which is why an arena can never change a
// result bit: layers see the same initial buffer contents either way.
//
// An Arena is NOT safe for concurrent use — it is owned by one network, and
// training a network was never concurrent (layers hold per-step state). In
// a parallel NAS search every candidate network has its own arena. Every
// network holds its arena by value from construction; the zero Arena is
// empty and ready to use.
type Arena struct {
	tens  map[arenaKey]*tensor.Tensor
	views map[arenaKey]*tensor.Tensor
	f64s  map[arenaKey][]float64
	ints  map[arenaKey][]int
	bools map[arenaKey][]bool

	hits, misses int64
}

// arenaKey addresses one logical buffer: the owning layer (or network) plus
// a slot tag for the distinct buffers that owner keeps live concurrently.
type arenaKey struct {
	owner any
	slot  uint8
}

// Slot tags. Owners only need tags to be distinct among their own live
// buffers; the owner pointer isolates them from everyone else's.
const (
	slotOut    uint8 = iota // layer forward output
	slotDX                  // layer backward input-gradient
	slotMask                // ReLU bool mask
	slotArg                 // MaxPool argmax indices
	slotXHat                // BatchNorm normalized activations
	slotStd                 // BatchNorm per-channel std
	slotView                // cached reshape header (forward)
	slotView2               // cached reshape header (backward)
	slotBatchX              // Fit/Accuracy minibatch staging input
	slotBatchY              // Fit minibatch staging labels
	slotProbs               // softmax scratch
	slotGrad                // cross-entropy logits gradient
	slotAcc                 // multi-exit junction gradient accumulator
	slotCols                // Conv2D batched im2col matrix
	slotOMat                // Conv2D forward GEMM output
	slotGMat                // Conv2D gathered output gradient
	slotDCols               // Conv2D column gradient
)

// Hits reports how many acquisitions were served from retained buffers.
func (a *Arena) Hits() int64 { return a.hits }

// Misses reports how many acquisitions had to allocate (first touch or
// re-grow after a larger batch shape arrived).
func (a *Arena) Misses() int64 { return a.misses }

func (a *Arena) hit()  { a.hits++ }
func (a *Arena) miss() { a.misses++ }

// setShape copies src into dst's storage, reusing it when the rank fits.
func setShape(dst, src []int) []int { return append(dst[:0], src...) }

// tensor returns a zero-filled tensor of the given shape for (owner, slot),
// reusing the retained buffer when its capacity suffices. The tensor is
// valid until the next acquire of the same (owner, slot).
func (a *Arena) tensor(owner any, slot uint8, shape ...int) *tensor.Tensor {
	vol := 1
	for _, d := range shape {
		vol *= d
	}
	key := arenaKey{owner, slot}
	t := a.tens[key]
	if t == nil || cap(t.Data) < vol {
		t = tensor.New(shape...)
		if a.tens == nil {
			a.tens = make(map[arenaKey]*tensor.Tensor)
		}
		a.tens[key] = t
		a.miss()
		return t
	}
	a.hit()
	t.Data = t.Data[:vol]
	clear(t.Data)
	t.Shape = setShape(t.Shape, shape)
	return t
}

// view returns a tensor header over data with the given shape, reusing a
// cached header so steady-state reshapes allocate nothing. The header (not
// the data) is owned by the arena and valid until the next view acquire of
// the same (owner, slot).
func (a *Arena) view(owner any, slot uint8, data []float64, shape ...int) *tensor.Tensor {
	vol := 1
	for _, d := range shape {
		vol *= d
	}
	if vol != len(data) {
		// Copy the shape for the message so the parameter does not escape
		// on the hot path (see tensor.New).
		panic(fmt.Sprintf("nn: arena view of %d elements cannot have shape %v",
			len(data), append([]int(nil), shape...)))
	}
	key := arenaKey{owner, slot}
	t := a.views[key]
	if t == nil {
		t = &tensor.Tensor{}
		if a.views == nil {
			a.views = make(map[arenaKey]*tensor.Tensor)
		}
		a.views[key] = t
		a.miss()
	} else {
		a.hit()
	}
	t.Data = data
	t.Shape = setShape(t.Shape, shape)
	return t
}

// floats returns a zero-filled []float64 of length n for (owner, slot).
func (a *Arena) floats(owner any, slot uint8, n int) []float64 {
	key := arenaKey{owner, slot}
	buf := a.f64s[key]
	if cap(buf) < n {
		buf = make([]float64, n)
		if a.f64s == nil {
			a.f64s = make(map[arenaKey][]float64)
		}
		a.f64s[key] = buf
		a.miss()
		return buf
	}
	a.hit()
	buf = buf[:n]
	clear(buf)
	a.f64s[key] = buf
	return buf
}

// intsBuf returns a zero-filled []int of length n for (owner, slot).
func (a *Arena) intsBuf(owner any, slot uint8, n int) []int {
	key := arenaKey{owner, slot}
	buf := a.ints[key]
	if cap(buf) < n {
		buf = make([]int, n)
		if a.ints == nil {
			a.ints = make(map[arenaKey][]int)
		}
		a.ints[key] = buf
		a.miss()
		return buf
	}
	a.hit()
	buf = buf[:n]
	clear(buf)
	a.ints[key] = buf
	return buf
}

// boolsBuf returns a zero-filled []bool of length n for (owner, slot).
func (a *Arena) boolsBuf(owner any, slot uint8, n int) []bool {
	key := arenaKey{owner, slot}
	buf := a.bools[key]
	if cap(buf) < n {
		buf = make([]bool, n)
		if a.bools == nil {
			a.bools = make(map[arenaKey][]bool)
		}
		a.bools[key] = buf
		a.miss()
		return buf
	}
	a.hit()
	buf = buf[:n]
	clear(buf)
	a.bools[key] = buf
	return buf
}
