package report_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"solarml/internal/obs/report"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: solarml
cpu: Example CPU @ 2.00GHz
BenchmarkFig1EnergyDistribution-8   	       1	   1520042 ns/op	  123456 B/op	     789 allocs/op
BenchmarkSearchTelemetryOff-8       	      50	  98765.4 ns/op
PASS
ok  	solarml	1.234s
pkg: solarml/internal/compute
BenchmarkMatMulBackend/serial-8     	      10	    54321 ns/op	     100 B/op	       2 allocs/op
BenchmarkShared-8                   	       5	      111 ns/op	       0 B/op	       0 allocs/op
ok  	solarml/internal/compute	0.5s
pkg: solarml/internal/nn
BenchmarkShared-8                   	       5	      222 ns/op	       8 B/op	       1 allocs/op
this line is noise and must be ignored
`

// TestParseGoBench pins the parser: ns/op with and without -benchmem,
// fractional ns/op, subbenchmark names, pkg tracking, noise tolerance.
func TestParseGoBench(t *testing.T) {
	results, err := report.ParseGoBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("parsed %d results, want 5: %+v", len(results), results)
	}
	r := results[0]
	if r.Name != "BenchmarkFig1EnergyDistribution" || r.Procs != 8 || r.Runs != 1 ||
		r.NsPerOp != 1520042 || r.BPerOp != 123456 || r.AllocsPerOp != 789 || !r.MemReported {
		t.Fatalf("first result wrong: %+v", r)
	}
	if r.Pkg != "solarml" {
		t.Fatalf("pkg tracking wrong: %+v", r)
	}
	if results[1].NsPerOp != 98765.4 || results[1].MemReported {
		t.Fatalf("benchmem-less result wrong: %+v", results[1])
	}
	if results[2].Name != "BenchmarkMatMulBackend/serial" || results[2].Pkg != "solarml/internal/compute" {
		t.Fatalf("subbenchmark wrong: %+v", results[2])
	}
}

// TestBenchFileJSON checks the emitted BENCH_solarml.json: schema header,
// name keys, package-qualification of colliding names, and a clean
// encoding/json round trip.
func TestBenchFileJSON(t *testing.T) {
	results, err := report.ParseGoBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	bf := report.NewBenchFile(results)
	var buf bytes.Buffer
	if err := bf.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}

	var decoded report.BenchFile
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("BENCH json does not round-trip: %v", err)
	}
	if decoded.Schema != report.BenchSchema || decoded.Go == "" || decoded.Version == "" {
		t.Fatalf("header wrong: %+v", decoded)
	}
	if len(decoded.Benchmarks) != 5 {
		t.Fatalf("got %d benchmarks, want 5: %v", len(decoded.Benchmarks), bf.Names())
	}
	b, ok := decoded.Benchmarks["BenchmarkFig1EnergyDistribution"]
	if !ok || b.NsPerOp != 1520042 || b.BPerOp != 123456 || b.AllocsPerOp != 789 {
		t.Fatalf("entry wrong: %+v (names %v)", b, bf.Names())
	}
	// BenchmarkShared exists in two packages: both must survive, qualified.
	if _, ok := decoded.Benchmarks["solarml/internal/compute/BenchmarkShared"]; !ok {
		t.Fatalf("colliding name not package-qualified: %v", bf.Names())
	}
	if _, ok := decoded.Benchmarks["solarml/internal/nn/BenchmarkShared"]; !ok {
		t.Fatalf("colliding name not package-qualified: %v", bf.Names())
	}
}

// TestBenchFileEmpty: writing an empty trajectory point must fail loudly.
func TestBenchFileEmpty(t *testing.T) {
	bf := report.NewBenchFile(nil)
	if err := bf.WriteJSON(&bytes.Buffer{}); err == nil {
		t.Fatal("empty bench file should refuse to write")
	}
}

// TestBenchFileMerge pins the overlay semantics a narrowed CI sweep relies
// on: untouched benchmarks survive, qualification drift between runs does
// not leave stale aliases, and a real version stamp is not clobbered by the
// "dev" fallback.
func TestBenchFileMerge(t *testing.T) {
	old := report.BenchFile{
		Schema:  report.BenchSchema,
		Go:      "go1.0",
		Version: "v1.2.3",
		Benchmarks: map[string]report.BenchResult{
			"BenchmarkKept":                    {NsPerOp: 1},
			"BenchmarkDrifts":                  {NsPerOp: 2},
			"solarml/internal/a/BenchmarkTwin": {Pkg: "solarml/internal/a", NsPerOp: 3},
			"solarml/internal/b/BenchmarkTwin": {Pkg: "solarml/internal/b", NsPerOp: 4},
		},
	}

	newer := report.NewBenchFile([]report.BenchResult{
		// BenchmarkDrifts now collides across two packages → qualified keys.
		{Name: "BenchmarkDrifts", Pkg: "solarml/internal/a", NsPerOp: 20},
		{Name: "BenchmarkDrifts", Pkg: "solarml/internal/b", NsPerOp: 21},
		// BenchmarkTwin ran in only one package this sweep → unqualified,
		// but must re-join its qualified twins instead of duplicating.
		{Name: "BenchmarkTwin", Pkg: "solarml/internal/a", NsPerOp: 30},
	})
	newer.Version = "dev"
	old.Merge(newer)

	want := map[string]float64{
		"BenchmarkKept":                      1,
		"solarml/internal/a/BenchmarkDrifts": 20,
		"solarml/internal/b/BenchmarkDrifts": 21,
		"solarml/internal/a/BenchmarkTwin":   30,
		"solarml/internal/b/BenchmarkTwin":   4,
	}
	if len(old.Benchmarks) != len(want) {
		t.Fatalf("merged keys = %v, want %d entries", old.Names(), len(want))
	}
	for k, ns := range want {
		got, ok := old.Benchmarks[k]
		if !ok || got.NsPerOp != ns {
			t.Errorf("merged[%q] = %+v (present %v), want %g ns/op", k, got, ok, ns)
		}
	}
	if old.Version != "v1.2.3" {
		t.Errorf("version = %q after dev merge, want v1.2.3 retained", old.Version)
	}

	// A real stamp from the newer run does win.
	realStamp := report.BenchFile{Version: "abc1234", Benchmarks: map[string]report.BenchResult{"BenchmarkKept": {NsPerOp: 5}}}
	old.Merge(realStamp)
	if old.Version != "abc1234" {
		t.Errorf("version = %q, want abc1234 adopted", old.Version)
	}
}

// TestDiffBench pins the trajectory diff: ratio math, regression flagging
// (ns/op past threshold OR any allocs/op increase), and added/removed rows
// never regressing.
func TestDiffBench(t *testing.T) {
	old := report.NewBenchFile(nil)
	old.Benchmarks["BenchmarkSteady"] = report.BenchResult{Name: "BenchmarkSteady", NsPerOp: 100, AllocsPerOp: 2, MemReported: true}
	old.Benchmarks["BenchmarkSlower"] = report.BenchResult{Name: "BenchmarkSlower", NsPerOp: 100}
	old.Benchmarks["BenchmarkAllocs"] = report.BenchResult{Name: "BenchmarkAllocs", NsPerOp: 100, AllocsPerOp: 0, MemReported: true}
	old.Benchmarks["BenchmarkGone"] = report.BenchResult{Name: "BenchmarkGone", NsPerOp: 7}

	cur := report.NewBenchFile(nil)
	cur.Benchmarks["BenchmarkSteady"] = report.BenchResult{Name: "BenchmarkSteady", NsPerOp: 105, AllocsPerOp: 2, MemReported: true}
	cur.Benchmarks["BenchmarkSlower"] = report.BenchResult{Name: "BenchmarkSlower", NsPerOp: 180}
	cur.Benchmarks["BenchmarkAllocs"] = report.BenchResult{Name: "BenchmarkAllocs", NsPerOp: 90, AllocsPerOp: 3, MemReported: true}
	cur.Benchmarks["BenchmarkNew"] = report.BenchResult{Name: "BenchmarkNew", NsPerOp: 42}

	deltas := report.DiffBench(old, cur)
	if len(deltas) != 5 {
		t.Fatalf("got %d deltas, want 5", len(deltas))
	}
	byKey := map[string]report.BenchDelta{}
	for _, d := range deltas {
		byKey[d.Key] = d
	}
	if d := byKey["BenchmarkSteady"]; d.Regressed(0.3) || d.Ratio < 1.04 || d.Ratio > 1.06 {
		t.Fatalf("steady misjudged: %+v", d)
	}
	if d := byKey["BenchmarkSlower"]; !d.Regressed(0.3) {
		t.Fatalf("1.8x slowdown not flagged: %+v", d)
	}
	if d := byKey["BenchmarkAllocs"]; !d.AllocsUp || !d.Regressed(0.3) {
		t.Fatalf("allocs increase not flagged: %+v", d)
	}
	if d := byKey["BenchmarkGone"]; d.InNew || d.Regressed(0) {
		t.Fatalf("removed benchmark misjudged: %+v", d)
	}
	if d := byKey["BenchmarkNew"]; d.InOld || d.Regressed(0) {
		t.Fatalf("added benchmark misjudged: %+v", d)
	}

	var buf strings.Builder
	regressed, err := report.WriteBenchDiff(&buf, deltas, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(regressed) != 2 {
		t.Fatalf("got %d regressions, want 2:\n%s", len(regressed), buf.String())
	}
	out := buf.String()
	for _, want := range []string{"REGRESSION", "1.80x", "new", "gone", "0→3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("diff table missing %q:\n%s", want, out)
		}
	}
}

// TestParseGoBenchCustomMetrics pins a line whose benchmark reports its own
// metric (b.ReportMetric), which Go prints between ns/op and B/op: the
// memory fields must still be read, and they must survive the trajectory
// file, so that a diff of two files flags allocs/op growth.
func TestParseGoBenchCustomMetrics(t *testing.T) {
	parse := func(line string) report.BenchFile {
		t.Helper()
		results, err := report.ParseGoBench(strings.NewReader("pkg: solarml\n" + line + "\n"))
		if err != nil || len(results) != 1 {
			t.Fatalf("parse %q: %v, %+v", line, err, results)
		}
		var buf bytes.Buffer
		if err := report.NewBenchFile(results).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		bf, err := report.ReadBenchFile(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return bf
	}
	old := parse("BenchmarkSearch-2   \t     100\t    300000 ns/op\t    280000 evals/s\t  126000 B/op\t     432 allocs/op")
	r := old.Benchmarks["BenchmarkSearch"]
	if r.NsPerOp != 300000 || r.BPerOp != 126000 || r.AllocsPerOp != 432 || !r.MemReported {
		t.Fatalf("custom-metric line read back as %+v", r)
	}
	cur := parse("BenchmarkSearch-2   \t     100\t    290000 ns/op\t    290000 evals/s\t  127000 B/op\t     433 allocs/op")
	if d := report.DiffBench(old, cur)[0]; !d.AllocsUp || !d.Regressed(0.3) {
		t.Fatalf("allocs/op growth between trajectory files not flagged: %+v", d)
	}
}
