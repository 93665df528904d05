package evo_test

// Island-layer pins: a single island reproduces the single-shard golden
// search exactly; multi-island runs are independent of Workers; a run
// stopped at a checkpoint and resumed is byte-identical to an uninterrupted
// one; and the persistent memo never changes an outcome.

import (
	"errors"
	"path/filepath"
	"testing"

	"solarml/internal/enas"
	"solarml/internal/evo"
	"solarml/internal/nas"
)

// Pinned values for the three-island golden run (captured from the initial
// implementation; any divergence means the migrant-merge order or the
// per-island PRNG streams changed).
const (
	goldenIslandFP         = uint64(0x525f32898d5047d7)
	goldenIslandEvals      = 241
	goldenIslandMigrations = 9
)

// islandENASConfig is the eNAS gesture golden configuration (seed 7) lifted
// into the island driver.
func islandENASConfig(islands, workers, interval int) evo.IslandConfig {
	return evo.IslandConfig{
		Config: evo.Config{
			Population: 12, SampleSize: 5, Cycles: 40, Seed: 7,
			Constraints: nas.DefaultConstraints(nas.TaskGesture),
			Workers:     workers,
		},
		Islands:           islands,
		MigrationInterval: interval,
		Migrants:          1,
	}
}

func runIslandENAS(t *testing.T, icfg evo.IslandConfig) *evo.IslandOutcome {
	t.Helper()
	out, err := evo.RunIslands(newENASPolicy(t), newSurrogate, icfg)
	if err != nil {
		t.Fatalf("RunIslands: %v", err)
	}
	return out
}

func newENASPolicy(t *testing.T) func() evo.Policy {
	t.Helper()
	space := nas.GestureSpace()
	cfg := enas.DefaultConfig(nas.TaskGesture, 0.5)
	cfg.Population, cfg.SampleSize, cfg.Cycles, cfg.SensingEvery, cfg.Seed = 12, 5, 40, 8, 7
	return func() evo.Policy {
		p, err := enas.NewPolicy(space, cfg)
		if err != nil {
			t.Fatalf("NewPolicy: %v", err)
		}
		return p
	}
}

func newSurrogate() nas.Evaluator {
	return nas.NewSurrogateEvaluator(nas.NewTruthEnergy())
}

// sameOutcome compares two island outcomes entry-for-entry: global best,
// evaluation counts, and every island's full history.
func sameOutcome(t *testing.T, what string, a, b *evo.IslandOutcome) {
	t.Helper()
	if a.Best.Cand.Fingerprint() != b.Best.Cand.Fingerprint() {
		t.Errorf("%s: best fingerprint %#016x vs %#016x",
			what, a.Best.Cand.Fingerprint(), b.Best.Cand.Fingerprint())
	}
	if a.Evaluations != b.Evaluations {
		t.Errorf("%s: evaluations %d vs %d", what, a.Evaluations, b.Evaluations)
	}
	if a.Migrations != b.Migrations {
		t.Errorf("%s: migrations %d vs %d", what, a.Migrations, b.Migrations)
	}
	if len(a.Islands) != len(b.Islands) {
		t.Fatalf("%s: island count %d vs %d", what, len(a.Islands), len(b.Islands))
	}
	for i := range a.Islands {
		ha, hb := a.Islands[i].History, b.Islands[i].History
		if len(ha) != len(hb) {
			t.Fatalf("%s: island %d history %d vs %d entries", what, i, len(ha), len(hb))
		}
		for j := range ha {
			if ha[j].Cand.Fingerprint() != hb[j].Cand.Fingerprint() ||
				ha[j].Res != hb[j].Res {
				t.Fatalf("%s: island %d history[%d] diverges", what, i, j)
			}
		}
	}
}

// TestIslandsSingleMatchesGolden pins that one island with no migration is
// the same search as the single-shard engine: the eNAS gesture golden values
// hold unchanged under the island driver.
func TestIslandsSingleMatchesGolden(t *testing.T) {
	want := golden{
		fp:     0xdfadecf0716af117,
		acc:    0.72665438639941482,
		energy: 0.0019313699195431936,
		evals:  73, hist: 73,
	}
	out := runIslandENAS(t, islandENASConfig(1, 0, 0))
	want.check(t, out.Best, out.Evaluations, len(out.Islands[0].History))
}

// TestIslandsWorkerIndependence pins the migration barrier discipline:
// islands interact only at barriers, merged in index order, so the complete
// multi-island outcome is identical for any Workers setting.
func TestIslandsWorkerIndependence(t *testing.T) {
	seq := runIslandENAS(t, islandENASConfig(3, 1, 10))
	par := runIslandENAS(t, islandENASConfig(3, 4, 10))
	sameOutcome(t, "workers 1 vs 4", seq, par)
	if seq.Migrations == 0 {
		t.Error("no migrations happened; the barrier path went untested")
	}
}

// TestGoldenIslandsENASGesture pins the multi-island merge order itself: a
// fixed seed, three islands, and a migration every 10 cycles must reproduce
// these values on any machine and worker count.
func TestGoldenIslandsENASGesture(t *testing.T) {
	out := runIslandENAS(t, islandENASConfig(3, 4, 10))
	if got := out.Best.Cand.Fingerprint(); got != goldenIslandFP {
		t.Errorf("best fingerprint = %#016x, want %#016x", got, goldenIslandFP)
	}
	if out.Evaluations != goldenIslandEvals {
		t.Errorf("evaluations = %d, want %d", out.Evaluations, goldenIslandEvals)
	}
	if out.Migrations != goldenIslandMigrations {
		t.Errorf("migrations = %d, want %d", out.Migrations, goldenIslandMigrations)
	}
}

// TestResumeMatchesUninterrupted is the checkpoint layer's central pin: stop
// a two-island run at a mid-search checkpoint barrier, resume it from disk,
// and the combined outcome must match an uninterrupted run of the same
// configuration entry for entry.
func TestResumeMatchesUninterrupted(t *testing.T) {
	full := runIslandENAS(t, islandENASConfig(2, 4, 10))

	ckpt := filepath.Join(t.TempDir(), "search.ckpt")
	stopCfg := islandENASConfig(2, 4, 10)
	stopCfg.Checkpoint = &evo.CheckpointSpec{Path: ckpt, Every: 5, StopAfterCycle: 20}
	if _, err := evo.RunIslands(newENASPolicy(t), newSurrogate, stopCfg); !errors.Is(err, evo.ErrStopped) {
		t.Fatalf("stopped run returned %v, want ErrStopped", err)
	}

	resumeCfg := islandENASConfig(2, 4, 10)
	resumeCfg.Checkpoint = &evo.CheckpointSpec{Path: ckpt, Every: 5}
	resumeCfg.Resume = true
	resumed := runIslandENAS(t, resumeCfg)

	// Migrations before the stop happened in the first process; only count
	// invariants that span both processes.
	if full.Best.Cand.Fingerprint() != resumed.Best.Cand.Fingerprint() {
		t.Errorf("best after resume = %#016x, want %#016x",
			resumed.Best.Cand.Fingerprint(), full.Best.Cand.Fingerprint())
	}
	if full.Best.Res != resumed.Best.Res {
		t.Errorf("best result after resume = %+v, want %+v", resumed.Best.Res, full.Best.Res)
	}
	for i := range full.Islands {
		ha, hb := full.Islands[i].History, resumed.Islands[i].History
		// The resumed run's history includes everything restored from the
		// checkpoint, so totals must match exactly.
		if len(ha) != len(hb) {
			t.Fatalf("island %d: history %d vs %d entries after resume", i, len(ha), len(hb))
		}
		for j := range ha {
			if ha[j].Cand.Fingerprint() != hb[j].Cand.Fingerprint() || ha[j].Res != hb[j].Res {
				t.Fatalf("island %d history[%d] diverges after resume", i, j)
			}
		}
	}
}

// TestResumeRejectsConfigSkew pins the config echo: a checkpoint resumed
// under a different search configuration must be refused, not replayed.
func TestResumeRejectsConfigSkew(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "search.ckpt")
	cfg := islandENASConfig(2, 1, 10)
	cfg.Checkpoint = &evo.CheckpointSpec{Path: ckpt, Every: 5, StopAfterCycle: 5}
	if _, err := evo.RunIslands(newENASPolicy(t), newSurrogate, cfg); !errors.Is(err, evo.ErrStopped) {
		t.Fatalf("stopped run returned %v, want ErrStopped", err)
	}
	skew := islandENASConfig(2, 1, 10)
	skew.Seed = 8
	skew.Checkpoint = &evo.CheckpointSpec{Path: ckpt, Every: 5}
	skew.Resume = true
	if _, err := evo.RunIslands(newENASPolicy(t), newSurrogate, skew); err == nil || errors.Is(err, evo.ErrStopped) {
		t.Fatalf("resume with a different seed returned %v, want a config-skew error", err)
	}
}

// TestMemoStoreInvariantOutcome pins the persistent memo's guarantee: a run
// backed by the store — including a second run replaying the first's entries
// — returns the same outcome as a run without it.
func TestMemoStoreInvariantOutcome(t *testing.T) {
	bare := runIslandENAS(t, islandENASConfig(2, 1, 10))

	memoPath := filepath.Join(t.TempDir(), "eval.memo")
	runWithMemo := func() *evo.IslandOutcome {
		store, err := evo.OpenMemoStore(memoPath, "island-test")
		if err != nil {
			t.Fatalf("OpenMemoStore: %v", err)
		}
		defer store.Close()
		cfg := islandENASConfig(2, 1, 10)
		cfg.Memo = store
		return runIslandENAS(t, cfg)
	}
	first := runWithMemo()
	sameOutcome(t, "memo cold", bare, first)

	store, err := evo.OpenMemoStore(memoPath, "island-test")
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	loaded := store.Len()
	store.Close()
	if loaded == 0 {
		t.Fatal("store is empty after a memo-backed run")
	}

	second := runWithMemo()
	sameOutcome(t, "memo warm", bare, second)
}
