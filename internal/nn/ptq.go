package nn

import "fmt"

// SnapshotParams copies every trainable parameter value, so callers can
// restore a network after destructive operations (weight snapping during
// int8 lowering, pruning experiments, warm restarts).
func (n *Network) SnapshotParams() [][]float64 {
	params := n.Params()
	out := make([][]float64, len(params))
	for i, p := range params {
		out[i] = append([]float64(nil), p.Value.Data...)
	}
	return out
}

// RestoreParams writes a snapshot back into the network.
func (n *Network) RestoreParams(snap [][]float64) {
	params := n.Params()
	if len(snap) != len(params) {
		panic(fmt.Sprintf("nn: snapshot has %d tensors, network has %d", len(snap), len(params)))
	}
	for i, p := range params {
		if len(snap[i]) != len(p.Value.Data) {
			panic(fmt.Sprintf("nn: snapshot tensor %d has %d values, want %d", i, len(snap[i]), len(p.Value.Data)))
		}
		copy(p.Value.Data, snap[i])
	}
}

// PTQConfig selects the deployment precision ConvertInt8 lowers a trained
// network to: symmetric per-channel weights and per-boundary activations,
// each in [2,8] bits.
type PTQConfig struct {
	WeightBits int
	ActBits    int
}
