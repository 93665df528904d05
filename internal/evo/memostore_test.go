package evo_test

// Memo-file tolerant-reader and merge pins, in the obs.ScanTrace style: a
// killed writer's truncated tail, a corrupt line, a version-skewed entry,
// and duplicate fingerprints must all degrade gracefully — skipped and
// counted — while a wrong scope or a non-memo file is a hard error.

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"solarml/internal/evo"
	"solarml/internal/nas"
)

func memoEntryLine(fp uint64, res nas.Result) string {
	return fmt.Sprintf(`{"v":1,"fp":"%016x","res":"%s"}`, fp, hex.EncodeToString(nas.AppendResult(nil, res)))
}

func writeMemoFile(t *testing.T, name string, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatalf("write %s: %v", name, err)
	}
	return path
}

const memoHeader = `{"v":1,"kind":"header","scope":"s"}`

func TestMemoStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.memo")
	s, err := evo.OpenMemoStore(path, "s")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	r1 := nas.Result{Accuracy: 0.5, EnergyJ: 1e-3, TotalMACs: 42}
	r2 := nas.Result{Accuracy: 0.75, SensingJ: 2e-4, InferJ: 3e-4, EnergyJ: 5e-4}
	if err := s.Append(1, r1); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := s.Append(2, r2); err != nil {
		t.Fatalf("append: %v", err)
	}
	// Re-appending a known fingerprint is a no-op, not a duplicate line.
	if err := s.Append(1, r2); err != nil {
		t.Fatalf("re-append: %v", err)
	}
	s.Close()

	s2, err := evo.OpenMemoStore(path, "s")
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 2 {
		t.Fatalf("reopened store has %d entries, want 2", s2.Len())
	}
	got := s2.Entries()
	if got[1] != r1 || got[2] != r2 {
		t.Fatalf("reopened entries diverge: %+v", got)
	}
	if st := s2.Stats(); st.Loaded != 2 || st.Skipped != 0 || st.Duplicates != 0 {
		t.Fatalf("stats = %+v, want 2 loaded and nothing skipped", st)
	}
}

func TestMemoStoreTolerantReads(t *testing.T) {
	good := memoEntryLine(7, nas.Result{Accuracy: 0.9, EnergyJ: 1e-3})

	t.Run("truncated tail", func(t *testing.T) {
		// A killed writer leaves a partial final line.
		path := writeMemoFile(t, "m.memo", memoHeader, good, `{"v":1,"fp":"00000000000000`)
		s, err := evo.OpenMemoStore(path, "s")
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer s.Close()
		if st := s.Stats(); st.Loaded != 1 || st.Skipped != 1 {
			t.Fatalf("stats = %+v, want 1 loaded / 1 skipped", st)
		}
	})

	t.Run("corrupt middle line", func(t *testing.T) {
		path := writeMemoFile(t, "m.memo", memoHeader, "!!not json!!", good)
		s, err := evo.OpenMemoStore(path, "s")
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer s.Close()
		if st := s.Stats(); st.Loaded != 1 || st.Skipped != 1 {
			t.Fatalf("stats = %+v, want 1 loaded / 1 skipped", st)
		}
	})

	t.Run("bad result hex", func(t *testing.T) {
		path := writeMemoFile(t, "m.memo", memoHeader, `{"v":1,"fp":"0000000000000007","res":"zz"}`, good)
		s, err := evo.OpenMemoStore(path, "s")
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer s.Close()
		if st := s.Stats(); st.Loaded != 1 || st.Skipped != 1 {
			t.Fatalf("stats = %+v, want 1 loaded / 1 skipped", st)
		}
	})

	t.Run("version skew", func(t *testing.T) {
		skewed := strings.Replace(memoEntryLine(8, nas.Result{Accuracy: 0.1}), `{"v":1`, `{"v":99`, 1)
		path := writeMemoFile(t, "m.memo", memoHeader, skewed, good)
		s, err := evo.OpenMemoStore(path, "s")
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer s.Close()
		if st := s.Stats(); st.Loaded != 1 || st.Skipped != 1 {
			t.Fatalf("stats = %+v, want 1 loaded / 1 skipped", st)
		}
	})

	t.Run("duplicate fingerprint", func(t *testing.T) {
		first := memoEntryLine(7, nas.Result{Accuracy: 0.9, EnergyJ: 1e-3})
		second := memoEntryLine(7, nas.Result{Accuracy: 0.1, EnergyJ: 9e-3})
		path := writeMemoFile(t, "m.memo", memoHeader, first, second)
		s, err := evo.OpenMemoStore(path, "s")
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer s.Close()
		if st := s.Stats(); st.Loaded != 1 || st.Duplicates != 1 {
			t.Fatalf("stats = %+v, want 1 loaded / 1 duplicate", st)
		}
		if got := s.Entries()[7]; got.Accuracy != 0.9 {
			t.Fatalf("duplicate resolution kept accuracy %v, want the first entry (0.9)", got.Accuracy)
		}
	})
}

func TestMemoStoreHardErrors(t *testing.T) {
	t.Run("scope mismatch", func(t *testing.T) {
		path := writeMemoFile(t, "m.memo", memoHeader)
		if _, err := evo.OpenMemoStore(path, "other-scope"); err == nil {
			t.Fatal("open with the wrong scope succeeded")
		}
	})
	t.Run("not a memo file", func(t *testing.T) {
		path := writeMemoFile(t, "m.memo", `{"v":1,"fp":"0000000000000001","res":""}`)
		if _, err := evo.OpenMemoStore(path, "s"); err == nil {
			t.Fatal("open without a header line succeeded")
		}
	})
	t.Run("header version skew", func(t *testing.T) {
		path := writeMemoFile(t, "m.memo", `{"v":99,"kind":"header","scope":"s"}`)
		if _, err := evo.OpenMemoStore(path, "s"); err == nil {
			t.Fatal("open with an unsupported header version succeeded")
		}
	})
}
