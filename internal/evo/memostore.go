package evo

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"solarml/internal/bytecodec"
	"solarml/internal/nas"
)

// memoLineVersion versions the store's line format. Lines carrying a
// different version are skipped (and counted), so a store written by a
// newer revision degrades to a partial cache instead of poisoning results.
const memoLineVersion = 1

// memoLine is one JSONL record of a memo store file. The first line of a
// file is the header (Kind == "header") carrying the store's scope; every
// other line is an entry: a candidate fingerprint plus the hex of the
// versioned binary nas.Result encoding. Binary-in-hex keeps the float bits
// exact (and NaN-safe) where JSON numbers would be a second codec to trust.
type memoLine struct {
	V     int    `json:"v"`
	Kind  string `json:"kind,omitempty"`
	Scope string `json:"scope,omitempty"`
	FP    string `json:"fp,omitempty"`
	Res   string `json:"res,omitempty"`
}

// MemoStats summarizes a tolerant read of a memo file.
type MemoStats struct {
	// Loaded counts entries accepted into the store.
	Loaded int
	// Skipped counts unparseable or version-skewed lines (a truncated
	// tail from a killed run is the common case).
	Skipped int
	// Duplicates counts well-formed entries whose fingerprint was already
	// present; the first occurrence wins (both repo evaluators are
	// deterministic per fingerprint, so later duplicates carry the same
	// result — keeping the first makes merges order-independent).
	Duplicates int
}

// MemoStore is the persistent backing of the evaluation memo: an
// append-only JSONL file of fingerprint→Result records that island shards
// share within a run. The reader is tolerant in the obs.ScanTrace style —
// corrupt or truncated lines are skipped and counted, never fatal — because
// the writer may have been killed mid-line; the scope header is the one
// hard gate, since a memo is only sound for the evaluator configuration it
// was computed under.
type MemoStore struct {
	mu    sync.Mutex
	path  string
	scope string
	f     *os.File
	w     *bufio.Writer
	known map[uint64]nas.Result
	stats MemoStats
}

// OpenMemoStore opens (or creates) the store at path for the given
// evaluator scope. An existing file must carry the same scope; its entries
// are loaded tolerantly. New entries are appended line-buffered and flushed
// per append, so a killed run loses at most the line being written.
func OpenMemoStore(path, scope string) (*MemoStore, error) {
	s := &MemoStore{path: path, scope: scope, known: make(map[uint64]nas.Result)}
	data, err := os.ReadFile(path)
	fresh := false
	switch {
	case os.IsNotExist(err):
		fresh = true
	case err != nil:
		return nil, err
	case len(data) == 0:
		fresh = true
	default:
		gotScope, entries, stats, rerr := readMemoData(data)
		if rerr != nil {
			return nil, fmt.Errorf("evo: memo %s: %w", path, rerr)
		}
		if gotScope != scope {
			return nil, fmt.Errorf("evo: memo %s has scope %q, want %q (stale cache for a different evaluator configuration)", path, gotScope, scope)
		}
		s.known = entries
		s.stats = stats
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	s.f, s.w = f, bufio.NewWriter(f)
	if fresh {
		if err := s.writeLine(memoLine{V: memoLineVersion, Kind: "header", Scope: scope}); err != nil {
			f.Close()
			return nil, err
		}
	}
	return s, nil
}

// Stats returns the tolerant-read statistics of the opening scan.
func (s *MemoStore) Stats() MemoStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Len returns the number of known entries.
func (s *MemoStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.known)
}

// Scope returns the evaluator scope the store was opened with.
func (s *MemoStore) Scope() string { return s.scope }

// Entries returns a copy of the known fingerprint→Result map.
func (s *MemoStore) Entries() map[uint64]nas.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[uint64]nas.Result, len(s.known))
	for fp, r := range s.known {
		out[fp] = r
	}
	return out
}

// Append persists one evaluation. Re-appending a known fingerprint is a
// no-op (first result wins), so concurrent shards racing on the same
// candidate cost one duplicate lookup, not duplicate lines.
func (s *MemoStore) Append(fp uint64, res nas.Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.known[fp]; ok {
		return nil
	}
	s.known[fp] = res
	return s.writeLine(memoLine{
		V:   memoLineVersion,
		FP:  fmt.Sprintf("%016x", fp),
		Res: hex.EncodeToString(nas.AppendResult(nil, res)),
	})
}

// writeLine marshals, writes, and flushes one record. Callers hold mu (or
// are still single-threaded in Open).
func (s *MemoStore) writeLine(l memoLine) error {
	b, err := json.Marshal(l)
	if err != nil {
		return err
	}
	if _, err := s.w.Write(append(b, '\n')); err != nil {
		return err
	}
	return s.w.Flush()
}

// Close flushes and closes the file handle. The store must not be used
// after Close.
func (s *MemoStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.w.Flush()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}

// readMemoData scans a memo file tolerantly: the header line must parse and
// lead (a store whose scope cannot be verified is rejected, not guessed),
// after which corrupt, truncated, or version-skewed lines are skipped and
// counted while every well-formed entry loads.
func readMemoData(data []byte) (scope string, entries map[uint64]nas.Result, stats MemoStats, err error) {
	entries = make(map[uint64]nas.Result)
	sawHeader := false
	for len(data) > 0 {
		line := data
		if i := indexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if len(line) == 0 {
			continue
		}
		var l memoLine
		if json.Unmarshal(line, &l) != nil {
			if !sawHeader {
				return "", nil, stats, fmt.Errorf("not a memo file (unparseable header line)")
			}
			stats.Skipped++
			continue
		}
		if !sawHeader {
			if l.Kind != "header" {
				return "", nil, stats, fmt.Errorf("not a memo file (first line is not a header)")
			}
			if l.V != memoLineVersion {
				return "", nil, stats, fmt.Errorf("unsupported memo version %d (have %d)", l.V, memoLineVersion)
			}
			scope, sawHeader = l.Scope, true
			continue
		}
		if l.Kind == "header" {
			// A second header (concatenated files): scopes must agree.
			if l.Scope != scope {
				return "", nil, stats, fmt.Errorf("conflicting scopes %q and %q in one memo file", scope, l.Scope)
			}
			continue
		}
		if l.V != memoLineVersion {
			stats.Skipped++
			continue
		}
		var fp uint64
		if _, serr := fmt.Sscanf(l.FP, "%016x", &fp); serr != nil || len(l.FP) != 16 {
			stats.Skipped++
			continue
		}
		raw, herr := hex.DecodeString(l.Res)
		if herr != nil {
			stats.Skipped++
			continue
		}
		r := bytecodec.NewReader(raw)
		res, rerr := nas.ReadResult(r)
		if rerr != nil || r.Len() != 0 {
			stats.Skipped++
			continue
		}
		if _, ok := entries[fp]; ok {
			stats.Duplicates++
			continue
		}
		entries[fp] = res
		stats.Loaded++
	}
	if !sawHeader {
		return "", nil, stats, fmt.Errorf("not a memo file (no header line)")
	}
	return scope, entries, stats, nil
}

func indexByte(b []byte, c byte) int {
	for i := range b {
		if b[i] == c {
			return i
		}
	}
	return -1
}
