package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"solarml/internal/quant"
)

// BenchmarkServeLatency measures end-to-end Classify latency through the
// queue, batcher, and executor — the number a capacity plan starts from.
// The zero-wait deadline isolates the serving overhead from deliberate
// coalescing delay; the batch=N cases submit N instances per call, which
// the batcher runs as one executor dispatch.
func BenchmarkServeLatency(b *testing.B) {
	m, calib := testModel(b)
	inVol := m.InVol()
	for _, batch := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			s, err := New(Config{Model: m, MaxBatch: batch, Workers: 1, BatchDeadline: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			xs := make([][]float64, batch)
			for i := range xs {
				xs[i] = calib.Data[i*inVol : (i+1)*inVol]
			}
			if _, err := s.ClassifyBatch(xs); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.ClassifyBatch(xs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// gestureInVol is the gesture model's input volume: 6 channels × 120 steps.
const gestureInVol = 720

// gestureBody returns the /classify body perfbench's serve workload sends:
// one gesture window of 8-bit readings over [-1, 1], as json.Marshal writes
// them.
func gestureBody(tb testing.TB) []byte {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, gestureInVol)
	for i := range x {
		x[i] = quant.QuantizeInt(2*rng.Float64()-1, 8, -1, 1)
	}
	body, err := json.Marshal(classifyRequest{Instances: [][]float64{x}})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// BenchmarkDecodeInstances measures the /classify decode stage alone on
// gestureBody.
func BenchmarkDecodeInstances(b *testing.B) {
	body := gestureBody(b)
	row := make([]float64, gestureInVol)
	rowFn := func(int) []float64 { return row }
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeInstances(body, gestureInVol, rowFn); err != nil {
			b.Fatal(err)
		}
	}
}
