package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"solarml/internal/obs"
	"solarml/internal/tensor"
)

func profiledNet() *Network {
	return NewNetwork([]int{1, 8, 8},
		NewConv2D(1, 4, 3, 1, 1),
		NewReLU(),
		NewMaxPool2D(2),
		NewFlatten(),
		NewDense(4*4*4, 5),
	)
}

// TestForwardProfiledMatchesForward checks the profiled pass is a pure
// observer: identical outputs, one timing per layer, and per-layer MACs
// that re-aggregate into exactly the MACsByKind feature vector the
// layer-wise energy model consumes — so energy predicted from profiled
// layers is byte-identical to energy predicted from the network.
func TestForwardProfiledMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := profiledNet()
	net.Init(rng)
	x := tensor.New(2, 1, 8, 8)
	x.RandFill(rng, 1)

	plain := net.Forward(x.Clone(), false).Clone() // the arena reuses the output buffer
	prof, timings := net.ForwardProfiled(x.Clone(), false)
	if len(plain.Data) != len(prof.Data) {
		t.Fatalf("shape mismatch: %d vs %d", len(plain.Data), len(prof.Data))
	}
	for i := range plain.Data {
		if math.Abs(plain.Data[i]-prof.Data[i]) > 1e-12 {
			t.Fatalf("profiled forward diverges at %d: %v vs %v", i, plain.Data[i], prof.Data[i])
		}
	}
	if len(timings) != len(net.Layers) {
		t.Fatalf("%d timings for %d layers", len(timings), len(net.Layers))
	}
	var byKind KindMACs
	for i, lt := range timings {
		if lt.Index != i {
			t.Fatalf("timing %d has index %d", i, lt.Index)
		}
		if lt.Forward < 0 {
			t.Fatalf("negative forward time at layer %d", i)
		}
		byKind.Add(lt.Kind, lt.MACs)
	}
	if want := net.MACsByKind(); byKind != want {
		t.Fatalf("profiled MACs %+v, MACsByKind says %+v", byKind, want)
	}
}

// TestEmitLayerTimings checks the trace shape of the per-layer events.
func TestEmitLayerTimings(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := profiledNet()
	net.Init(rng)
	x := tensor.New(1, 1, 8, 8)
	x.RandFill(rng, 1)
	_, timings := net.ForwardProfiled(x, false)

	var buf bytes.Buffer
	rec := obs.NewRecorder(&buf)
	EmitLayerTimings(rec, timings, 1)
	EmitLayerTimings(nil, timings, 1) // nil recorder is a no-op
	rec.Flush()
	events, skipped, err := obs.ScanTrace(&buf)
	if err != nil || skipped != 0 {
		t.Fatalf("trace does not decode: %v, %d lines skipped", err, skipped)
	}
	if len(events) != len(net.Layers) {
		t.Fatalf("%d events for %d layers", len(events), len(net.Layers))
	}
	if events[0].Name != "nn.layer" || events[0].Str("kind") != "Conv" {
		t.Fatalf("first layer event wrong: %+v", events[0])
	}
}

// TestFitEmitsEpochEvents checks the nn.fit span and per-epoch events.
func TestFitEmitsEpochEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := profiledNet()
	net.Init(rng)
	x := tensor.New(8, 1, 8, 8)
	x.RandFill(rng, 1)
	y := make([]int, 8)
	for i := range y {
		y[i] = i % 5
	}
	var buf bytes.Buffer
	rec := obs.NewRecorder(&buf)
	net.Fit(x, y, TrainConfig{Epochs: 3, BatchSize: 4, LR: 0.01, Seed: 1, Obs: rec})
	rec.Flush()
	events, skipped, err := obs.ScanTrace(&buf)
	if err != nil || skipped != 0 {
		t.Fatalf("trace does not decode: %v, %d lines skipped", err, skipped)
	}
	epochs, fits := 0, 0
	for _, e := range events {
		switch e.Name {
		case "nn.epoch":
			epochs++
		case "nn.fit":
			fits++
		}
	}
	if epochs != 3 || fits != 1 {
		t.Fatalf("got %d epoch events and %d fit spans, want 3 and 1", epochs, fits)
	}
}
