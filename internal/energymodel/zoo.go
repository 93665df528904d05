package energymodel

import (
	"math"
	"math/rand"

	"solarml/internal/nn"
)

// ZooMACs synthesizes the per-kind MAC breakdown of one model from the
// §IV-A measurement campaign: the paper measured 300 models "with different
// layers and numbers of MACs" — deliberately diverse in layer composition
// (conv-heavy CNNs, dense-heavy MLPs, and mixed stacks), which is what
// separates the layer-wise proxy from the single total-MACs proxy in
// Table I. Totals are log-uniform over ≈50 k–800 k MACs.
func ZooMACs(rng *rand.Rand) nn.KindMACs {
	total := math.Pow(10, 4.7+rng.Float64()*1.2)
	style := rng.Intn(3)
	var convFrac, denseFrac float64
	switch style {
	case 0: // conv-heavy CNN
		convFrac = 0.8 + rng.Float64()*0.18
		denseFrac = (1 - convFrac) * rng.Float64() * 0.5
	case 1: // dense-heavy MLP
		denseFrac = 0.8 + rng.Float64()*0.18
		convFrac = (1 - denseFrac) * rng.Float64() * 0.5
	default: // mixed
		convFrac = 0.3 + rng.Float64()*0.3
		denseFrac = 0.2 + rng.Float64()*0.3
	}
	rest := 1 - convFrac - denseFrac
	if rest < 0 {
		rest = 0
	}
	dw := rest * rng.Float64()
	rest -= dw
	mp := rest * rng.Float64()
	rest -= mp
	ap := rest * rng.Float64()
	norm := rest - ap
	return nn.KindMACs{}.
		With(nn.KindConv, int64(total*convFrac)).
		With(nn.KindDense, int64(total*denseFrac)).
		With(nn.KindDWConv, int64(total*dw)).
		With(nn.KindMaxPool, int64(total*mp)).
		With(nn.KindAvgPool, int64(total*ap)).
		With(nn.KindNorm, int64(total*norm))
}
