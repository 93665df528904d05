package compute

import (
	"time"

	"solarml/internal/obs"
)

// Context bundles a Backend with optional telemetry. A context is immutable
// once built, so one context may be shared by all layers of a network and,
// in a parallel eNAS search, by all evaluator goroutines.
type Context struct {
	backend Backend
	timed   bool
	gemm    *obs.Histogram
}

// NewContext returns a context over the given backend (nil selects Serial).
// When reg is non-nil the context records a compute.gemm_seconds histogram
// per GEMM call.
func NewContext(backend Backend, reg *obs.Registry) *Context {
	if backend == nil {
		backend = Serial{}
	}
	c := &Context{backend: backend}
	if reg != nil {
		c.timed = true
		c.gemm = reg.Histogram("compute.gemm_seconds", obs.TimeBuckets)
	}
	return c
}

// NewContextFor is shorthand for a context over NewParallel(workers) — or
// the serial backend when workers is 1 — with optional metrics.
func NewContextFor(workers int, reg *obs.Registry) *Context {
	if workers == 1 {
		return NewContext(Serial{}, reg)
	}
	return NewContext(NewParallel(workers), reg)
}

// Workers reports the kernel parallelism.
func (c *Context) Workers() int { return c.backend.Workers() }

// Name reports the backend name.
func (c *Context) Name() string { return c.backend.Name() }

// MatMul computes dst = a×b (+ rowBias); see Backend.MatMul.
func (c *Context) MatMul(dst, a, b, rowBias []float64, m, k, n int) {
	var t0 time.Time
	if c.timed {
		t0 = time.Now()
	}
	c.backend.MatMul(dst, a, b, rowBias, m, k, n)
	if c.timed {
		c.gemm.Observe(time.Since(t0).Seconds())
	}
}

// MatMulTransA computes dst (+)= aᵀ×b; see Backend.MatMulTransA.
func (c *Context) MatMulTransA(dst, a, b []float64, k, m, n int, accumulate bool) {
	var t0 time.Time
	if c.timed {
		t0 = time.Now()
	}
	c.backend.MatMulTransA(dst, a, b, k, m, n, accumulate)
	if c.timed {
		c.gemm.Observe(time.Since(t0).Seconds())
	}
}

// MatMulTransB computes dst (+)= a×bᵀ (+ colBias); see Backend.MatMulTransB.
func (c *Context) MatMulTransB(dst, a, b, colBias []float64, m, k, n int, accumulate bool) {
	var t0 time.Time
	if c.timed {
		t0 = time.Now()
	}
	c.backend.MatMulTransB(dst, a, b, colBias, m, k, n, accumulate)
	if c.timed {
		c.gemm.Observe(time.Since(t0).Seconds())
	}
}

// Axpy computes dst += alpha·src.
func (c *Context) Axpy(alpha float64, src, dst []float64) {
	c.backend.Axpy(alpha, src, dst)
}

// For runs fn over disjoint chunks covering [0,n); see Backend.For.
func (c *Context) For(n, grain int, fn func(i0, i1 int)) {
	c.backend.For(n, grain, fn)
}

// ParallelFor runs fn over disjoint index ranges covering [0,n), deriving
// the dispatch grain from flopsPerItem — the caller's estimate of the
// arithmetic work per index. The grain is sized so one chunk carries at
// least the backend's parallel work floor: cheap loops (ReLU, mask
// application) only fan out when the tensor is large enough to amortize the
// goroutine dispatch, while expensive per-item bodies (a pooling window, a
// batch-norm channel) parallelize at small n.
//
// Chunks are element-disjoint and every index is visited exactly once, so
// any fn whose writes depend only on its own indices produces bit-identical
// results at every worker count — the property the elementwise training
// kernels in internal/nn rely on.
func (c *Context) ParallelFor(n, flopsPerItem int, fn func(i0, i1 int)) {
	if flopsPerItem < 1 {
		flopsPerItem = 1
	}
	grain := parallelFlops / flopsPerItem
	if grain < 1 {
		grain = 1
	}
	c.backend.For(n, grain, fn)
}
