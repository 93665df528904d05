package nn

import (
	"math"
	"math/rand"
	"testing"

	"solarml/internal/tensor"
)

// lossOf computes L = 0.5·Σy² for the layer output on x in training mode.
func lossOf(l Layer, x *tensor.Tensor) float64 {
	y := l.Forward(x, true)
	s := 0.0
	for _, v := range y.Data {
		s += 0.5 * v * v
	}
	return s
}

// bindLayer binds a standalone layer to a fresh arena and the serial
// context, as NewNetwork does for every layer it is built from.
func bindLayer(l Layer) { l.(binder).bind(serialContext, &Arena{}) }

// checkGradients verifies analytic gradients of a layer (both input and
// parameter gradients) against central finite differences under the loss
// L = 0.5·Σy².
func checkGradients(t *testing.T, l Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	bindLayer(l)
	for _, p := range l.Params() {
		p.zeroGrad()
	}
	y := l.Forward(x, true)
	dy := y.Clone() // dL/dy = y
	dx := l.Backward(dy)

	const h = 1e-5
	// Input gradient.
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + h
		lp := lossOf(l, x)
		x.Data[i] = orig - h
		lm := lossOf(l, x)
		x.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-dx.Data[i]) > tol*(1+math.Abs(num)) {
			t.Fatalf("input grad mismatch at %d: analytic %.6g numeric %.6g", i, dx.Data[i], num)
		}
	}
	// Parameter gradients. Re-run forward/backward to leave caches consistent.
	for pi, p := range l.Params() {
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + h
			lp := lossOf(l, x)
			p.Value.Data[i] = orig - h
			lm := lossOf(l, x)
			p.Value.Data[i] = orig
			num := (lp - lm) / (2 * h)
			if math.Abs(num-p.Grad.Data[i]) > tol*(1+math.Abs(num)) {
				t.Fatalf("param %d grad mismatch at %d: analytic %.6g numeric %.6g", pi, i, p.Grad.Data[i], num)
			}
		}
	}
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := NewDense(5, 3)
	l.Init(rng)
	x := tensor.New(4, 5)
	x.RandFill(rng, 1)
	checkGradients(t, l, x, 1e-5)
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	l := NewConv2D(2, 3, 3, 1, 1)
	l.Init(rng)
	x := tensor.New(2, 2, 5, 5)
	x.RandFill(rng, 1)
	checkGradients(t, l, x, 1e-4)
}

func TestConv2DStridedGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l := NewConv2D(1, 2, 3, 2, 0)
	l.Init(rng)
	x := tensor.New(2, 1, 7, 7)
	x.RandFill(rng, 1)
	checkGradients(t, l, x, 1e-4)
}

func TestDepthwiseConvGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	l := NewDepthwiseConv2D(3, 3, 1, 1)
	l.Init(rng)
	x := tensor.New(2, 3, 4, 4)
	x.RandFill(rng, 1)
	checkGradients(t, l, x, 1e-4)
}

func TestAvgPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l := NewAvgPool2D(2)
	x := tensor.New(2, 2, 4, 4)
	x.RandFill(rng, 1)
	checkGradients(t, l, x, 1e-5)
}

func TestMaxPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	l := NewMaxPool2D(2)
	x := tensor.New(2, 2, 4, 4)
	// Keep entries well separated so the argmax is stable under ±h probes.
	for i := range x.Data {
		x.Data[i] = float64(rng.Intn(1000)) / 10
	}
	checkGradients(t, l, x, 1e-5)
}

func TestBatchNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	l := NewBatchNorm(2)
	l.Init(rng)
	// Non-trivial gamma/beta so gradients are exercised.
	l.Gamma.Value.Data[0], l.Gamma.Value.Data[1] = 1.3, 0.7
	l.Beta.Value.Data[0], l.Beta.Value.Data[1] = 0.2, -0.4
	x := tensor.New(3, 2, 2, 2)
	x.RandFill(rng, 1)
	checkGradients(t, l, x, 1e-3)
}

func TestReLUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	l := NewReLU()
	x := tensor.New(3, 7)
	x.RandFill(rng, 1)
	// Push values away from the kink.
	for i := range x.Data {
		if math.Abs(x.Data[i]) < 0.05 {
			x.Data[i] += 0.1
		}
	}
	checkGradients(t, l, x, 1e-6)
}

func TestCrossEntropyGradientNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	logits := tensor.New(3, 4)
	logits.RandFill(rng, 1)
	labels := []int{1, 3, 0}
	_, grad := CrossEntropy(logits, labels)
	const h = 1e-6
	for i := range logits.Data {
		orig := logits.Data[i]
		logits.Data[i] = orig + h
		lp, _ := CrossEntropy(logits, labels)
		logits.Data[i] = orig - h
		lm, _ := CrossEntropy(logits, labels)
		logits.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-grad.Data[i]) > 1e-4 {
			t.Fatalf("xent grad mismatch at %d: analytic %.6g numeric %.6g", i, grad.Data[i], num)
		}
	}
}
