package nn

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"solarml/internal/tensor"
)

// benchGestureInt8 lowers the deploy-shaped gesture CNN once for the
// quantized-forward benchmarks.
func benchGestureInt8(b *testing.B) (*Int8Model, *Network, []float64) {
	b.Helper()
	m, net, x, _ := convertGesture(b)
	return m, net, x.Data
}

// BenchmarkFloatForward is the baseline the int8 path is gated against
// (≥2× at batch 1): the float inference pass as cmd/deploy and Accuracy
// run it.
func BenchmarkFloatForward(b *testing.B) {
	m, net, data := benchGestureInt8(b)
	for _, batch := range []int{1, 16} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			shape := append([]int{batch}, m.InShape()...)
			x := tensor.FromSlice(data[:batch*m.InVol()], shape...)
			b.ReportAllocs()
			runtime.GC() // drain fixture garbage so GC noise is the path's own
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Forward(x, false)
			}
		})
	}
}

// BenchmarkInt8Forward times the steady-state quantized forward pass; the
// allocs/op column must read 0.
func BenchmarkInt8Forward(b *testing.B) {
	m, _, data := benchGestureInt8(b)
	for _, batch := range []int{1, 16} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			ex := m.NewExecutor(nil, batch)
			in := data[:batch*m.InVol()]
			ex.Forward(in, batch) // warm the cached closures
			b.ReportAllocs()
			// A zero-alloc loop never triggers GC; collect the float bench's
			// garbage up front so a background mark phase (write barriers,
			// stolen cores) can't bleed into the quantized measurement.
			runtime.GC()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ex.Forward(in, batch)
			}
		})
	}
}

// BenchmarkInt8Ops times each stage of the batch-1 forward pass on the
// deploy-shaped gesture model by itself: the input quantizer and every op
// of the lowered program (conv with its fused ReLU, max-pool, the hidden
// dense layer, the logits head), each fed the activations the real forward
// pass hands it. The sub-benchmarks sum to about BenchmarkInt8Forward
// batch=1 and show which kernel a change moved.
func BenchmarkInt8Ops(b *testing.B) {
	m, _, data := benchGestureInt8(b)
	in := data[:m.InVol()]
	ex := m.NewExecutor(nil, 1)
	ex.Forward(in, 1) // warm the cached closures
	b.Run("quant", func(b *testing.B) {
		b.ReportAllocs()
		runtime.GC()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ex.quant.Run(ex.ctx, ex.arena.actA[:len(in)], in, m.inScale, ex.hi)
		}
	})
	names := map[int8OpKind]string{opConv: "conv", opMaxPool: "pool", opDense: "dense", opDenseLogits: "logits"}
	// Replay the program step by step so each op times on its real input
	// (the kernels skip zero activations).
	cur, nxt := ex.arena.actA, ex.arena.actB
	ex.quant.Run(ex.ctx, cur[:len(in)], in, m.inScale, ex.hi)
	for i := 0; i < len(m.ops); i++ {
		op := &m.ops[i]
		name, ok := names[op.kind]
		if !ok {
			b.Fatalf("op %d: kind %d outside the deploy shape", i, op.kind)
		}
		out := op.out
		if op.pool > 0 {
			i++
			out = m.ops[i].out
			name += "+pool"
		}
		src, dst := cur[:op.in], nxt[:out]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			runtime.GC()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ex.step(op, 1, src, dst)
			}
		})
		cur, nxt = nxt, cur
	}
}

// BenchmarkLoadInt8Model times decoding the gesture model's container, the
// one-time set-up cmd/serve pays before its first request.
func BenchmarkLoadInt8Model(b *testing.B) {
	m, _, _ := benchGestureInt8(b)
	var buf bytes.Buffer
	if err := SaveInt8Model(&buf, m); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadInt8Model(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}
