package report

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"solarml/internal/obs"
)

// BenchResult is one parsed `go test -bench` line.
type BenchResult struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped
	// (stable across machines); Pkg the package it ran in.
	Name string `json:"-"`
	Pkg  string `json:"pkg,omitempty"`
	// Procs is the stripped GOMAXPROCS suffix (0 when absent).
	Procs int `json:"procs,omitempty"`
	// Runs is b.N for the reported measurement.
	Runs    int64   `json:"runs"`
	NsPerOp float64 `json:"ns_per_op"`
	// BPerOp/AllocsPerOp are present only under -benchmem (MemReported).
	// MemReported is kept in the trajectory file, so a diff of two files
	// can tell a zero-allocation benchmark from one run without -benchmem.
	BPerOp      int64 `json:"b_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	MemReported bool  `json:"benchmem,omitempty"`
}

// benchLine matches e.g.
//
//	BenchmarkFoo-8   	 1000	   1234 ns/op	 9.5 evals/s	  56 B/op	   7 allocs/op
//
// up to ns/op; benchMetric then reads the value-unit pairs after it, which
// hold any metrics the benchmark reports itself and, under -benchmem, the
// B/op and allocs/op fields.
var (
	benchLine   = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+([0-9.]+) ns/op((?:\s+\S+\s+\S+)*)`)
	benchMetric = regexp.MustCompile(`(\S+)\s+(\S+)`)
)

var benchPkgLine = regexp.MustCompile(`^pkg:\s+(\S+)`)

// ParseGoBench extracts benchmark results from `go test -bench` output,
// tracking the `pkg:` header lines so the same benchmark name in two
// packages stays distinguishable. Non-benchmark lines (PASS, ok, custom
// metrics, compiler noise) are ignored.
func ParseGoBench(r io.Reader) ([]BenchResult, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var out []BenchResult
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if m := benchPkgLine.FindStringSubmatch(line); m != nil {
			pkg = m[1]
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		res := BenchResult{Name: m[1], Pkg: pkg}
		res.Procs, _ = strconv.Atoi(m[2])
		res.Runs, _ = strconv.ParseInt(m[3], 10, 64)
		res.NsPerOp, _ = strconv.ParseFloat(m[4], 64)
		for _, f := range benchMetric.FindAllStringSubmatch(m[5], -1) {
			switch f[2] {
			case "B/op":
				res.BPerOp, _ = strconv.ParseInt(f[1], 10, 64)
				res.MemReported = true
			case "allocs/op":
				res.AllocsPerOp, _ = strconv.ParseInt(f[1], 10, 64)
			}
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

// BenchFile is the BENCH_solarml.json schema: one entry per benchmark name
// (package-qualified on collision), keyed for easy diffing across PRs.
type BenchFile struct {
	Schema     string                 `json:"schema"`
	Go         string                 `json:"go"`
	Version    string                 `json:"version"`
	Benchmarks map[string]BenchResult `json:"benchmarks"`
}

// BenchSchema identifies the emitter format.
const BenchSchema = "solarml-bench/v1"

// NewBenchFile assembles the trajectory file from parsed results. When two
// packages define the same benchmark name, both keys are qualified with
// their package path so neither silently wins.
func NewBenchFile(results []BenchResult) BenchFile {
	f := BenchFile{
		Schema:     BenchSchema,
		Go:         obs.GoVersion(),
		Version:    obs.Version(),
		Benchmarks: make(map[string]BenchResult, len(results)),
	}
	byName := make(map[string][]BenchResult, len(results))
	for _, r := range results {
		byName[r.Name] = append(byName[r.Name], r)
	}
	for name, rs := range byName {
		if len(rs) == 1 {
			f.Benchmarks[name] = rs[0]
			continue
		}
		for _, r := range rs {
			f.Benchmarks[r.Pkg+"/"+name] = r
		}
	}
	return f
}

// ReadBenchFile parses an existing trajectory file.
func ReadBenchFile(r io.Reader) (BenchFile, error) {
	var f BenchFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return BenchFile{}, fmt.Errorf("bench: parse trajectory file: %w", err)
	}
	if f.Schema != BenchSchema {
		return BenchFile{}, fmt.Errorf("bench: unexpected schema %q", f.Schema)
	}
	return f, nil
}

// benchKeyName strips the package-qualification prefix (added on name
// collisions) from a Benchmarks map key, returning the bare benchmark name.
func benchKeyName(k string) string {
	if i := strings.Index(k, "Benchmark"); i > 0 && k[i-1] == '/' {
		return k[i:]
	}
	return k
}

// Merge overlays new results onto f: entries sharing a key are replaced,
// everything else is retained — a narrowed benchmark sweep (CI's smoke
// subset) then refreshes its own data points without erasing the rest of
// the trajectory. Qualification drift between runs is reconciled: a newly
// qualified key evicts its stale unqualified alias, and an unqualified
// result joins existing qualified twins under its package key rather than
// duplicating them. The Go stamp follows the newer file; the version stamp
// does too, unless the newer one is the "dev" fallback and f already
// carries a real stamp.
func (f *BenchFile) Merge(newer BenchFile) {
	f.Go = newer.Go
	if newer.Version != "" && !(newer.Version == "dev" && f.Version != "" && f.Version != "dev") {
		f.Version = newer.Version
	}
	if f.Benchmarks == nil {
		f.Benchmarks = make(map[string]BenchResult, len(newer.Benchmarks))
	}
	for k, v := range newer.Benchmarks {
		bare := benchKeyName(k)
		if k != bare {
			// Newly qualified: any old unqualified alias is stale.
			delete(f.Benchmarks, bare)
		} else if v.Pkg != "" {
			for old := range f.Benchmarks {
				if old != bare && benchKeyName(old) == bare {
					k = v.Pkg + "/" + bare
					delete(f.Benchmarks, bare)
					break
				}
			}
		}
		f.Benchmarks[k] = v
	}
}

// WriteJSON writes the file as stable, indented JSON (encoding/json sorts
// map keys, so reruns diff cleanly).
func (f BenchFile) WriteJSON(w io.Writer) error {
	if len(f.Benchmarks) == 0 {
		return fmt.Errorf("bench: no benchmark results to write")
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// Names returns the sorted benchmark keys (for summaries and tests).
func (f BenchFile) Names() []string {
	names := make([]string, 0, len(f.Benchmarks))
	for n := range f.Benchmarks {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// BenchDelta is one benchmark's old-vs-new comparison in a trajectory diff.
type BenchDelta struct {
	Key      string
	Old, New BenchResult
	// InOld/InNew report presence; a benchmark only in one file is listed
	// but never counts as a regression.
	InOld, InNew bool
	// Ratio is new/old ns-per-op (0 unless present in both).
	Ratio float64
	// AllocsUp reports an allocs/op increase (both sides -benchmem only).
	AllocsUp bool
}

// Regressed reports whether the delta breaches the threshold: ns/op grew
// past 1+threshold, or allocs/op increased at all (allocation counts are
// deterministic, so any growth is a real change, not noise).
func (d BenchDelta) Regressed(threshold float64) bool {
	if !d.InOld || !d.InNew {
		return false
	}
	return d.Ratio > 1+threshold || d.AllocsUp
}

// DiffBench compares two trajectory files key by key, in sorted order.
func DiffBench(old, newer BenchFile) []BenchDelta {
	keys := make(map[string]struct{}, len(old.Benchmarks)+len(newer.Benchmarks))
	for k := range old.Benchmarks {
		keys[k] = struct{}{}
	}
	for k := range newer.Benchmarks {
		keys[k] = struct{}{}
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)

	out := make([]BenchDelta, 0, len(sorted))
	for _, k := range sorted {
		d := BenchDelta{Key: k}
		d.Old, d.InOld = old.Benchmarks[k]
		d.New, d.InNew = newer.Benchmarks[k]
		if d.InOld && d.InNew && d.Old.NsPerOp > 0 {
			d.Ratio = d.New.NsPerOp / d.Old.NsPerOp
		}
		if d.InOld && d.InNew && d.Old.MemReported && d.New.MemReported {
			d.AllocsUp = d.New.AllocsPerOp > d.Old.AllocsPerOp
		}
		out = append(out, d)
	}
	return out
}

// WriteBenchDiff renders the comparison as a fixed-width table, flagging
// rows that breach the threshold, and returns the regressed subset.
func WriteBenchDiff(w io.Writer, deltas []BenchDelta, threshold float64) ([]BenchDelta, error) {
	if _, err := fmt.Fprintf(w, "%-52s %14s %14s %8s %10s\n",
		"benchmark", "old ns/op", "new ns/op", "ratio", "allocs"); err != nil {
		return nil, err
	}
	var regressed []BenchDelta
	for _, d := range deltas {
		switch {
		case !d.InOld:
			if _, err := fmt.Fprintf(w, "%-52s %14s %14.0f %8s %10s\n",
				d.Key, "-", d.New.NsPerOp, "new", ""); err != nil {
				return nil, err
			}
			continue
		case !d.InNew:
			if _, err := fmt.Fprintf(w, "%-52s %14.0f %14s %8s %10s\n",
				d.Key, d.Old.NsPerOp, "-", "gone", ""); err != nil {
				return nil, err
			}
			continue
		}
		allocs := fmt.Sprintf("%d→%d", d.Old.AllocsPerOp, d.New.AllocsPerOp)
		flag := ""
		if d.Regressed(threshold) {
			flag = "  << REGRESSION"
			regressed = append(regressed, d)
		}
		if _, err := fmt.Fprintf(w, "%-52s %14.0f %14.0f %7.2fx %10s%s\n",
			d.Key, d.Old.NsPerOp, d.New.NsPerOp, d.Ratio, allocs, flag); err != nil {
			return nil, err
		}
	}
	return regressed, nil
}
