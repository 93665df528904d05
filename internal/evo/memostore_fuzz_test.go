package evo

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"solarml/internal/nas"
)

const fuzzMemoHeader = `{"v":1,"kind":"header","scope":"s"}`

func fuzzMemoEntry(fp uint64, res nas.Result) string {
	return fmt.Sprintf(`{"v":1,"fp":"%016x","res":"%s"}`, fp, hex.EncodeToString(nas.AppendResult(nil, res)))
}

// sameResults reports whether two entry maps hold the same fingerprints
// with byte-identical result encodings (NaN-safe, unlike ==).
func sameResults(a, b map[uint64]nas.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for fp, ra := range a {
		rb, ok := b[fp]
		if !ok || !bytes.Equal(nas.AppendResult(nil, ra), nas.AppendResult(nil, rb)) {
			return false
		}
	}
	return true
}

// FuzzMemoLine fuzzes the tolerant memo reader with arbitrary lines after a
// valid header. It never panics; every line it rejects is counted in
// Skipped; a repeated fingerprint keeps its first result; and every accepted
// entry, re-appended through MemoStore.Append, reads back identically. A
// result naming layer kind 9, outside the enum, is one such rejected line.
func FuzzMemoLine(f *testing.F) {
	good := fuzzMemoEntry(7, nas.Result{Accuracy: 0.9, EnergyJ: 1e-3})
	res := nas.AppendResult(nil, nas.Result{Accuracy: 0.9, TotalMACs: 5})
	res = append(res[:len(res)-1], 1, 2*9, 10) // one kind, 9 zig-zag encoded, with 5 MACs
	kind9 := fmt.Sprintf(`{"v":1,"fp":"0000000000000009","res":"%s"}`, hex.EncodeToString(res))
	if _, entries, st, err := readMemoData([]byte(fuzzMemoHeader + "\n" + kind9 + "\n")); err != nil ||
		len(entries) != 0 || st.Skipped != 1 {
		f.Fatalf("kind-9 line: %d entries, stats %+v, err %v; want it skipped", len(entries), st, err)
	}
	for _, seed := range []string{
		kind9 + "\n" + good,
		good,
		good + "\n" + `{"v":1,"fp":"00000000000000`,
		"!!not json!!\n" + good,
		`{"v":1,"fp":"0000000000000007","res":"zz"}` + "\n" + good,
		strings.Replace(fuzzMemoEntry(8, nas.Result{Accuracy: 0.1}), `{"v":1`, `{"v":99`, 1) + "\n" + good,
		good + "\n" + fuzzMemoEntry(7, nas.Result{Accuracy: 0.1, EnergyJ: 9e-3}),
		fuzzMemoHeader + "\n" + good,
		`{"v":1,"kind":"header","scope":"other"}`,
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		if !strings.HasSuffix(body, "\n") {
			body += "\n"
		}
		data := fuzzMemoHeader + "\n" + body
		scope, entries, st, err := readMemoData([]byte(data))
		if err != nil {
			return // a second header with another scope is the only hard error left
		}
		if scope != "s" {
			t.Fatalf("scope %q, want %q", scope, "s")
		}

		lines, headers := 0, 0
		for _, line := range strings.Split(body, "\n") {
			if line == "" {
				continue
			}
			lines++
			var l memoLine
			if json.Unmarshal([]byte(line), &l) == nil && l.Kind == "header" {
				headers++
			}
		}
		if got := st.Loaded + st.Duplicates + st.Skipped + headers; got != lines {
			t.Fatalf("%d lines but %d loaded + %d duplicate + %d skipped + %d header",
				lines, st.Loaded, st.Duplicates, st.Skipped, headers)
		}
		if st.Loaded != len(entries) {
			t.Fatalf("Loaded %d but %d entries", st.Loaded, len(entries))
		}

		fps := make([]uint64, 0, len(entries))
		for fp := range entries {
			fps = append(fps, fp)
		}
		sort.Slice(fps, func(i, j int) bool { return fps[i] < fps[j] })

		// First wins: a later line for an accepted fingerprint is a duplicate.
		var later strings.Builder
		for _, fp := range fps {
			later.WriteString(fuzzMemoEntry(fp, nas.Result{Accuracy: -1}) + "\n")
		}
		_, again, st2, err := readMemoData([]byte(data + later.String()))
		if err != nil {
			t.Fatalf("appending entry lines broke the read: %v", err)
		}
		if !sameResults(entries, again) || st2.Duplicates != st.Duplicates+len(fps) {
			t.Fatalf("later duplicates replaced first results (duplicates %d → %d for %d fingerprints)",
				st.Duplicates, st2.Duplicates, len(fps))
		}

		// Round trip through the writer.
		path := filepath.Join(t.TempDir(), "m.memo")
		s, err := OpenMemoStore(path, "s")
		if err != nil {
			t.Fatal(err)
		}
		for _, fp := range fps {
			if err := s.Append(fp, entries[fp]); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		written, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, back, st3, err := readMemoData(written)
		if err != nil {
			t.Fatalf("re-read of appended entries: %v", err)
		}
		if !sameResults(entries, back) || st3.Skipped != 0 || st3.Duplicates != 0 {
			t.Fatalf("appended entries read back differently (stats %+v)", st3)
		}
	})
}
