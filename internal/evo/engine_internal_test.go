package evo

import (
	"math/rand"
	"slices"
	"testing"

	"solarml/internal/nas"
)

// tournamentEngine returns an engine with a paper-sized population of
// empty entries: enough for the tournament sampler, which reads only the
// population size.
func tournamentEngine(t *testing.T, seed int64) *engine {
	t.Helper()
	e, err := newEngine(&ckptPolicy{space: nas.GestureSpace()}, nas.NewSurrogateEvaluator(nil),
		Config{Population: 50, SampleSize: 20, Seed: seed}, nil, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	e.population = make([]Entry, e.cfg.Population)
	return e
}

// TestTournamentSampleMatchesPerm pins the sampler to rand.Perm: the same
// indices from the same draws, tournament after tournament, so seeded
// searches and checkpointed draw counts are what a per-tournament Perm
// gave.
func TestTournamentSampleMatchesPerm(t *testing.T) {
	e := tournamentEngine(t, 9)
	ref := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		want := ref.Perm(e.cfg.Population)[:e.cfg.SampleSize]
		if got := e.sample(); !slices.Equal(got, want) {
			t.Fatalf("tournament %d sampled %v, rand.Perm gives %v", i, got, want)
		}
	}
	if got, want := e.rng.Int63(), ref.Int63(); got != want {
		t.Fatalf("stream diverged after sampling: next draw %d, want %d", got, want)
	}
}
