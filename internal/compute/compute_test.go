package compute

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// fill populates buf with reproducible values, zeroing roughly one in five
// entries so the kernels' av == 0 skip path is exercised on both backends.
func fill(rng *rand.Rand, buf []float64) {
	for i := range buf {
		if rng.Intn(5) == 0 {
			buf[i] = 0
			continue
		}
		buf[i] = rng.NormFloat64()
	}
}

// bitsEqual compares two float64 slices bit for bit.
func bitsEqual(t *testing.T, name string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d vs %d", name, len(want), len(got))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: element %d differs: %v (%#x) vs %v (%#x)",
				name, i, want[i], math.Float64bits(want[i]), got[i], math.Float64bits(got[i]))
		}
	}
}

// The shapes mix tiny, odd (prime) and large-enough-to-parallelize cases.
// The last two exceed parallelFlops, so the parallel backend really fans out.
var gemmShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{3, 5, 7},
	{17, 13, 29},
	{2, 1000, 17}, // m=2 with huge k: two chunks of one row each
	{33, 257, 65},
	{64, 128, 96},
}

var workerCounts = []int{2, 3, 4, 7}

func TestParallelMatMulBitIdentical(t *testing.T) {
	for _, sh := range gemmShapes {
		rng := rand.New(rand.NewSource(7))
		a := make([]float64, sh.m*sh.k)
		b := make([]float64, sh.k*sh.n)
		bias := make([]float64, sh.m)
		fill(rng, a)
		fill(rng, b)
		fill(rng, bias)
		for _, rowBias := range [][]float64{nil, bias} {
			want := make([]float64, sh.m*sh.n)
			Serial{}.MatMul(want, a, b, rowBias, sh.m, sh.k, sh.n)
			for _, w := range workerCounts {
				got := make([]float64, sh.m*sh.n)
				NewParallel(w).MatMul(got, a, b, rowBias, sh.m, sh.k, sh.n)
				bitsEqual(t, "MatMul", want, got)
			}
		}
	}
}

func TestParallelMatMulTransABitIdentical(t *testing.T) {
	for _, sh := range gemmShapes {
		rng := rand.New(rand.NewSource(11))
		// a is (k, m); dst is (m, n).
		a := make([]float64, sh.k*sh.m)
		b := make([]float64, sh.k*sh.n)
		seed := make([]float64, sh.m*sh.n)
		fill(rng, a)
		fill(rng, b)
		fill(rng, seed)
		for _, acc := range []bool{false, true} {
			want := append([]float64(nil), seed...)
			Serial{}.MatMulTransA(want, a, b, sh.k, sh.m, sh.n, acc)
			for _, w := range workerCounts {
				got := append([]float64(nil), seed...)
				NewParallel(w).MatMulTransA(got, a, b, sh.k, sh.m, sh.n, acc)
				bitsEqual(t, "MatMulTransA", want, got)
			}
		}
	}
}

func TestParallelMatMulTransBBitIdentical(t *testing.T) {
	for _, sh := range gemmShapes {
		rng := rand.New(rand.NewSource(13))
		// b is (n, k); dst is (m, n).
		a := make([]float64, sh.m*sh.k)
		b := make([]float64, sh.n*sh.k)
		bias := make([]float64, sh.n)
		seed := make([]float64, sh.m*sh.n)
		fill(rng, a)
		fill(rng, b)
		fill(rng, bias)
		fill(rng, seed)
		cases := []struct {
			colBias []float64
			acc     bool
		}{{nil, false}, {bias, false}, {nil, true}}
		for _, tc := range cases {
			want := append([]float64(nil), seed...)
			Serial{}.MatMulTransB(want, a, b, tc.colBias, sh.m, sh.k, sh.n, tc.acc)
			for _, w := range workerCounts {
				got := append([]float64(nil), seed...)
				NewParallel(w).MatMulTransB(got, a, b, tc.colBias, sh.m, sh.k, sh.n, tc.acc)
				bitsEqual(t, "MatMulTransB", want, got)
			}
		}
	}
}

func TestParallelAxpyBitIdentical(t *testing.T) {
	for _, n := range []int{1, 17, parallelFlops + 31} {
		rng := rand.New(rand.NewSource(17))
		src := make([]float64, n)
		seed := make([]float64, n)
		fill(rng, src)
		fill(rng, seed)
		want := append([]float64(nil), seed...)
		Serial{}.Axpy(0.37, src, want)
		for _, w := range workerCounts {
			got := append([]float64(nil), seed...)
			NewParallel(w).Axpy(0.37, src, got)
			bitsEqual(t, "Axpy", want, got)
		}
	}
}

// TestForCoversRange checks that For visits every index exactly once for all
// backends, worker counts and grains — the contract conv layers rely on.
func TestForCoversRange(t *testing.T) {
	backends := []Backend{Serial{}}
	for _, w := range workerCounts {
		backends = append(backends, NewParallel(w))
	}
	for _, be := range backends {
		for _, n := range []int{0, 1, 5, 23, 64} {
			for _, grain := range []int{1, 4, 100} {
				var mu sync.Mutex
				seen := make([]int, n)
				be.For(n, grain, func(i0, i1 int) {
					mu.Lock()
					defer mu.Unlock()
					for i := i0; i < i1; i++ {
						seen[i]++
					}
				})
				for i, c := range seen {
					if c != 1 {
						t.Fatalf("%s workers=%d n=%d grain=%d: index %d visited %d times",
							be.Name(), be.Workers(), n, grain, i, c)
					}
				}
			}
		}
	}
}

// TestContextDispatchBitIdentical drives the ops through Context (the layer
// path) rather than the raw backend, serial vs parallel.
func TestContextDispatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	m, k, n := 33, 257, 65
	a := make([]float64, m*k)
	b := make([]float64, k*n)
	fill(rng, a)
	fill(rng, b)
	want := make([]float64, m*n)
	NewContextFor(1, nil).MatMul(want, a, b, nil, m, k, n)
	got := make([]float64, m*n)
	NewContextFor(4, nil).MatMul(got, a, b, nil, m, k, n)
	bitsEqual(t, "Context.MatMul", want, got)
}

func TestBudgetWorkers(t *testing.T) {
	if w := BudgetWorkers(1 << 20); w != 1 {
		t.Fatalf("BudgetWorkers with huge outer = %d, want 1", w)
	}
	if w := BudgetWorkers(0); w < 1 {
		t.Fatalf("BudgetWorkers(0) = %d", w)
	}
}

// TestParallelForCoversRange checks the grain-deriving dispatch visits every
// index exactly once across contexts, worker counts and per-item costs.
func TestParallelForCoversRange(t *testing.T) {
	ctxs := []*Context{NewContextFor(1, nil)}
	for _, w := range workerCounts {
		ctxs = append(ctxs, NewContextFor(w, nil))
	}
	for _, ctx := range ctxs {
		for _, n := range []int{0, 1, 7, 64, 501} {
			for _, flops := range []int{1, 8, 1 << 20} {
				var mu sync.Mutex
				seen := make([]int, n)
				ctx.ParallelFor(n, flops, func(i0, i1 int) {
					mu.Lock()
					defer mu.Unlock()
					for i := i0; i < i1; i++ {
						seen[i]++
					}
				})
				for i, c := range seen {
					if c != 1 {
						t.Fatalf("workers=%d n=%d flops=%d: index %d visited %d times",
							ctx.Workers(), n, flops, i, c)
					}
				}
			}
		}
	}
}

// TestParallelForGrainFloor checks cheap loops do not fan out: with a
// per-item cost far below the parallel work floor and n under the derived
// grain, the whole range must arrive as a single chunk.
func TestParallelForGrainFloor(t *testing.T) {
	ctx := NewContextFor(4, nil)
	calls := 0
	ctx.ParallelFor(64, 1, func(i0, i1 int) {
		calls++
		if i0 != 0 || i1 != 64 {
			t.Fatalf("cheap loop split into [%d,%d)", i0, i1)
		}
	})
	if calls != 1 {
		t.Fatalf("cheap 64-element loop dispatched %d chunks, want 1", calls)
	}
}

// TestParallelDispatchAllocs pins the worker-pool dispatch cost: once the
// pool and a caller's closure are warm, For/ParallelFor and the GEMMs must
// not allocate — the property the allocation-free training step rests on.
func TestParallelDispatchAllocs(t *testing.T) {
	ctx := NewContextFor(4, nil)
	data := make([]float64, 1<<14)
	fn := func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			data[i] += 1
		}
	}
	ctx.ParallelFor(len(data), 8, fn) // warm pool goroutines and WaitGroups
	allocs := testing.AllocsPerRun(20, func() {
		ctx.ParallelFor(len(data), 8, fn)
	})
	// The runtime may lazily grow a sudog or two on blocked channel sends;
	// everything under the package's control is allocation-free.
	if allocs > 1 {
		t.Errorf("warm ParallelFor dispatch allocates %.1f times, want ≤1", allocs)
	}

	m, k, n := 32, 64, 48
	a := make([]float64, m*k)
	b := make([]float64, k*n)
	dst := make([]float64, m*n)
	ctx.MatMul(dst, a, b, nil, m, k, n)
	allocs = testing.AllocsPerRun(20, func() {
		ctx.MatMul(dst, a, b, nil, m, k, n)
	})
	if allocs > 1 {
		t.Errorf("warm parallel MatMul allocates %.1f times, want ≤1", allocs)
	}
}
