// Command perfbench is the repository benchmark. It builds one workload's
// inputs from a seed, sets the system up several times (timing each), warms
// it up, runs it for a wall-clock window, checks every output, and prints
// one JSON object as the last line of standard output: the end-to-end
// metrics with --trace 0, the per-layer metrics of an instrumented run with
// --trace 1. Run it from the repository root:
//
//	bash perfbench/run.sh --workload fleet --seed 3 --seconds 20 --trace 0
//
// Workloads (BENCHMARK.json says why each was chosen), with the unit of
// work that latency times and throughput counts:
//
//	surrogate-search  eNAS searches scored by the surrogate; one evaluation step
//	fleet             one-day simulations of 32-device fleets; one fleet (32 device-days)
//	serve             HTTP classify requests from one closed-loop caller; one request
//
// Per-layer times are shares of the work's wall time, so a layer a workload
// never enters reads 0 rather than a missing value.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"
)

// A run sets the system up at least minSetups times and until setupBudget
// of set-up time has passed (at most maxSetups times); setup_s is the
// median. Cheap set-ups take a millisecond, where one slow repetition
// would otherwise move the figure.
const (
	minSetups   = 5
	maxSetups   = 100
	setupBudget = 250 * time.Millisecond
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// timeSlices is how many equal parts of its window a run's timings are cut
// into. Each end-to-end timing is the median of its per-slice values, so a
// burst of load from elsewhere on the machine moves one slice, not the run.
const timeSlices = 8

// sample is one timed unit of work.
type sample struct {
	end   time.Duration // since the window opened
	lat   float64       // seconds
	items int           // work items it completed: evaluations, device-days, requests
}

// tally is what one measured window produced.
type tally struct {
	samples   []sample
	attempted int
	failed    int                // operations that errored or returned a wrong output
	wrong     int                // operations whose output failed a check
	layers    map[string]float64 // trace runs only; keys from layerUnits
}

// items returns the work items completed in the window.
func (t *tally) items() int {
	n := 0
	for _, s := range t.samples {
		n += s.items
	}
	return n
}

// timings returns the median over the window's slices of the latency
// quantiles and of the throughput. A slice no sample ended in is skipped.
func (t *tally) timings() (p50, p90, rate float64) {
	var span time.Duration
	for _, s := range t.samples {
		span = max(span, s.end)
	}
	width := span / timeSlices
	var p50s, p90s, rates []float64
	for k := 0; k < timeSlices; k++ {
		lo, hi := time.Duration(k)*width, time.Duration(k+1)*width
		var lat []float64
		items := 0
		for _, s := range t.samples {
			if s.end >= lo && (s.end < hi || k == timeSlices-1) {
				lat = append(lat, s.lat)
				items += s.items
			}
		}
		if len(lat) == 0 {
			continue
		}
		p50s = append(p50s, quantile(lat, 0.50))
		p90s = append(p90s, quantile(lat, 0.90))
		rates = append(rates, float64(items)/width.Seconds())
	}
	return quantile(p50s, 0.5), quantile(p90s, 0.5), quantile(rates, 0.5)
}

// bench is a workload after set-up.
type bench interface {
	// measure runs the workload for the window. In trace runs it also fills
	// tally.layers.
	measure(window time.Duration) tally
	close()
}

// workload builds its seeded inputs (untimed) and returns the set-up step,
// which run times and repeats.
type workload func(seed int64, trace bool) (setup func() (bench, error), err error)

// layerUnits lists every per-layer metric. A trace run reports all of them:
// the layers its workload enters carry measured values, the rest read 0.
var layerUnits = map[string]string{
	"evo_engine_pct":                    "%",
	"nas_evaluator_pct":                 "%",
	"evo_evals_per_search":              "count",
	"evo_reject_pct":                    "%",
	"fleet_interactions_per_device_day": "count",
	"fleet_completed_pct":               "%",
	"fleet_brownout_pct":                "%",
	"serve_http_pct":                    "%",
	"serve_queue_pct":                   "%",
	"serve_exec_pct":                    "%",
	"alloc_kb_per_item":                 "KB",
}

// workloads maps each workload to its inputs. Every workload runs on the
// processors the machine gives the process, as the commands do.
var workloads = map[string]workload{
	"surrogate-search": surrogateSearch,
	"fleet":            fleetWorkload,
	"serve":            serveWorkload,
}

// errWrong marks an operation whose output failed a correctness check.
var errWrong = errors.New("wrong output")

func wrongf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errWrong, fmt.Sprintf(format, args...))
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured window in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from an instrumented run")
	flag.Parse()
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	res, err := run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(name string, seed int64, window time.Duration, trace bool) (*result, error) {
	inputs, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	setup, err := inputs(seed, trace)
	if err != nil {
		return nil, fmt.Errorf("%s inputs: %w", name, err)
	}
	var b bench
	var setups []float64
	for spent := 0.0; len(setups) < minSetups || (spent < setupBudget.Seconds() && len(setups) < maxSetups); {
		t0 := time.Now()
		next, err := setup()
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[len(setups)-1]
		if b != nil {
			b.close()
		}
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		b = next
	}
	defer b.close()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t := b.measure(window)
	runtime.ReadMemStats(&after)
	items := t.items()
	if len(t.samples) < timeSlices || items == 0 {
		return nil, fmt.Errorf("%s completed no work in %v", name, window)
	}

	res := &result{Correct: t.wrong == 0, Attempted: t.attempted, Failed: t.failed}
	if trace {
		res.Metrics = make(map[string]metric, len(layerUnits))
		for layer, unit := range layerUnits {
			res.Metrics[layer] = metric{0, unit}
		}
		if t.layers == nil {
			t.layers = make(map[string]float64)
		}
		t.layers["alloc_kb_per_item"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(items)
		for layer, v := range t.layers {
			unit, ok := layerUnits[layer]
			if !ok {
				return nil, fmt.Errorf("%s reported unlisted layer metric %q", name, layer)
			}
			res.Metrics[layer] = metric{v, unit}
		}
		return res, nil
	}
	p50, p90, rate := t.timings()
	res.Metrics = map[string]metric{
		"latency_p50_ms": {1e3 * p50, "ms"},
		"latency_p90_ms": {1e3 * p90, "ms"},
		"throughput":     {rate, "items/s"},
		"setup_s":        {quantile(setups, 0.5), "s"},
	}
	return res, nil
}

// warmBase is where warm-up inputs start in a stream, far past any input
// a measured window reaches.
const warmBase = 1 << 30

// warmUp runs op on inputs outside the measured stream for a fifth of the
// window, so the heap, the caches, and the memory the process faults in
// settle before timing starts: the first seconds of a run measured up to a
// fifth slower than the rest.
func warmUp(window time.Duration, op func(i int) (items int, err error)) tally {
	var t tally
	start := time.Now()
	for i := warmBase; time.Since(start) < window/5; i++ {
		_, err := op(i)
		t.attempted++
		t.count(err)
	}
	return t
}

// closedLoop runs op back to back over a stream of seeded inputs, in rounds
// of n, until the window has passed, and records one sample per operation.
// op(i) runs the stream's input i. It finishes the round in progress, so
// each run covers whole rounds, and inputs stratified within a round keep
// the same mix in every run.
func closedLoop(window time.Duration, n int, op func(i int) (items int, err error)) tally {
	var t tally
	start := time.Now()
	for i := 0; i%n != 0 || time.Since(start) < window; i++ {
		t0 := time.Now()
		items, err := op(i)
		end := time.Since(start)
		t.samples = append(t.samples, sample{end, (end - t0.Sub(start)).Seconds(), items})
		t.attempted++
		t.count(err)
	}
	return t
}

// inputRand returns the generator for input i of the seed's stream. The
// two are mixed through splitmix64 first: generators seeded with nearby
// integers start out correlated, which would tie a run's inputs together.
func inputRand(seed int64, i int) *rand.Rand {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return rand.New(rand.NewSource(int64(z ^ (z >> 31))))
}

// addCounts folds another tally's operation counts into t.
func (t *tally) addCounts(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
}

// count books one operation's error, if any; the first is reported on
// standard error.
func (t *tally) count(err error) {
	if err == nil {
		return
	}
	if t.failed == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", err)
	}
	t.failed++
	if errors.Is(err, errWrong) {
		t.wrong++
	}
}

// quantile returns the p-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// pct returns part as a percentage of whole, 0 when whole is 0.
func pct(part, whole float64) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * part / whole
}
