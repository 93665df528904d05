// Package tensor provides a minimal dense tensor type and the linear-algebra
// kernels used by the solarml neural-network substrate. Tensors are row-major
// float64 buffers with an explicit shape; all operations are deterministic
// and allocation-explicit so that callers can account for peak memory, which
// matters when estimating MCU RAM usage.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major tensor.
type Tensor struct {
	// Shape holds the extent of each dimension, outermost first.
	Shape []int
	// Data is the backing buffer, of length equal to the product of Shape.
	Data []float64
}

// New returns a zero-filled tensor with the given shape.
// It panics if any dimension is non-positive.
//
// The shape is copied before any other use so the variadic parameter does
// not escape: callers building a shape inline keep it on their stack.
func New(shape ...int) *Tensor {
	s := make([]int, len(shape))
	copy(s, shape)
	n := 1
	for _, d := range s {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, s))
		}
		n *= d
	}
	return &Tensor{Shape: s, Data: make([]float64, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); its length must match the shape volume. As with
// New, the shape is copied up front so the variadic parameter stays on the
// caller's stack.
func FromSlice(data []float64, shape ...int) *Tensor {
	s := make([]int, len(shape))
	copy(s, shape)
	n := 1
	for _, d := range s {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (volume %d)", len(data), s, n))
	}
	return &Tensor{Shape: s, Data: data}
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.Shape) }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view of t with a new shape of equal volume.
// The backing buffer is shared.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape volume %d to %v", len(t.Data), shape))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Shape: s, Data: t.Data}
}

// index converts multi-dimensional indices to a flat offset.
func (t *Tensor) index(idx ...int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: %d indices for %d-d tensor", len(idx), len(t.Shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range [0,%d) in dim %d", x, t.Shape[i], i))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// At returns the element at the given indices.
func (t *Tensor) At(idx ...int) float64 { return t.Data[t.index(idx...)] }

// Set assigns the element at the given indices.
func (t *Tensor) Set(v float64, idx ...int) { t.Data[t.index(idx...)] = v }

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// RandFill fills t with uniform values in [-scale, scale] from rng.
func (t *Tensor) RandFill(rng *rand.Rand, scale float64) {
	for i := range t.Data {
		t.Data[i] = (rng.Float64()*2 - 1) * scale
	}
}

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	return true
}

// Add computes t += o element-wise.
func (t *Tensor) Add(o *Tensor) {
	if len(t.Data) != len(o.Data) {
		panic("tensor: Add length mismatch")
	}
	for i, v := range o.Data {
		t.Data[i] += v
	}
}

// Sub computes t -= o element-wise.
func (t *Tensor) Sub(o *Tensor) {
	if len(t.Data) != len(o.Data) {
		panic("tensor: Sub length mismatch")
	}
	for i, v := range o.Data {
		t.Data[i] -= v
	}
}

// MulElem computes t *= o element-wise.
func (t *Tensor) MulElem(o *Tensor) {
	if len(t.Data) != len(o.Data) {
		panic("tensor: MulElem length mismatch")
	}
	for i, v := range o.Data {
		t.Data[i] *= v
	}
}

// Scale multiplies every element by s.
func (t *Tensor) Scale(s float64) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// AxpyInto computes dst += alpha*src element-wise.
func AxpyInto(dst *Tensor, alpha float64, src *Tensor) {
	if len(dst.Data) != len(src.Data) {
		panic("tensor: Axpy length mismatch")
	}
	for i, v := range src.Data {
		dst.Data[i] += alpha * v
	}
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 { return t.Sum() / float64(len(t.Data)) }

// Max returns the maximum element value.
func (t *Tensor) Max() float64 {
	m := math.Inf(-1)
	for _, v := range t.Data {
		if v > m {
			m = v
		}
	}
	return m
}

// MaxAbs returns the largest element magnitude — the statistic symmetric
// quantization calibrates from (scale = MaxAbs / (2^(bits−1)−1)).
func (t *Tensor) MaxAbs() float64 {
	m := 0.0
	for _, v := range t.Data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Argmax returns the flat index of the maximum element.
func (t *Tensor) Argmax() int {
	best, bi := math.Inf(-1), 0
	for i, v := range t.Data {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// L2Norm returns the Euclidean norm of the flattened tensor.
func (t *Tensor) L2Norm() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// String renders a compact description for debugging.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v(len=%d)", t.Shape, len(t.Data))
}
