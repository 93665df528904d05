// Package fleetobs is the live view of a long fleet (or island-search)
// run: the Inspector behind /debug/fleet and its bounded downsampling
// time-series ring. Workers report progress on cache-line-padded stripes,
// so the hot path shares no lines; the read side sums the stripes.
package fleetobs

import (
	"encoding/json"
	"net/http"
	"sync/atomic"
	"time"

	"solarml/internal/obs"
)

// cacheLine is the assumed coherence granule. Stripes are padded to it so
// two workers never share a line.
const cacheLine = 64

// secondsPerYear converts unit-seconds to unit-years for the headline
// throughput figure (device-years/sec for fleets).
const secondsPerYear = 365 * 24 * 3600

// WorkerStatus is one worker's progress in a Status report.
type WorkerStatus struct {
	Worker int   `json:"worker"`
	Done   int64 `json:"done"`
	// LagS is seconds since this worker last reported — a stuck or
	// starved worker shows up as a growing lag.
	LagS float64 `json:"lag_s"`
}

// Status is the inspector's point-in-time progress report, served as JSON
// (and as SSE frames) on /debug/fleet.
type Status struct {
	// Units names what is being counted: "devices" for fleet runs,
	// "cycles" for island searches.
	Units    string  `json:"units"`
	Total    int64   `json:"total"`
	Done     int64   `json:"done"`
	Finished bool    `json:"finished"`
	ElapsedS float64 `json:"elapsed_s"`
	// RatePerSec is completed units per wall-clock second.
	RatePerSec float64 `json:"rate_per_sec"`
	// UnitYearsPerSec is simulated unit-years per wall-clock second
	// (device-years/sec for fleets; 0 for unit-less workloads).
	UnitYearsPerSec float64 `json:"unit_years_per_sec"`
	// EtaS estimates the remaining wall-clock seconds at the current rate
	// (0 until the first unit completes, and once finished).
	EtaS    float64        `json:"eta_s"`
	Workers []WorkerStatus `json:"workers"`
	// Accounts carries the run's joule-ledger account totals when an
	// accounts source is attached.
	Accounts map[string]float64 `json:"accounts,omitempty"`
	// Series is the downsampled progress time series since start.
	Series []Point `json:"series"`
}

// inspStripe is one worker's progress stripe, padded to a cache line.
type inspStripe struct {
	done        atomic.Int64
	unitSeconds obs.Gauge
	lastNano    atomic.Int64
	_           [cacheLine - 24]byte
}

// Inspector makes a long fleet (or island-search) run observable while it
// runs: workers report per-unit completion through striped atomics (one
// padded stripe per worker, so no two workers share a line), and the read
// side — the /debug/fleet handler — derives progress, throughput, ETA,
// per-worker lag, and a bounded downsampled time series from them. A nil
// *Inspector is a valid disabled inspector: Advance and Finish return
// immediately, so the fleet loop needs no guards.
type Inspector struct {
	units string
	total int64
	start time.Time

	stripes  []inspStripe
	ring     *ring
	lastNano atomic.Int64 // unix-nano of the last ring sample
	gapNano  atomic.Int64 // current ring gap, mirrored for the hot-path check

	accounts   atomic.Pointer[func() map[string]float64]
	finished   atomic.Bool
	finishNano atomic.Int64
}

// ringCapacity bounds the time series; with the 100 ms initial gap it holds
// ~50 s of fine samples before the first halving, and a device-year run
// ends up with the same 512 points at coarser spacing.
const ringCapacity = 512

// NewInspector returns an inspector for a run of total units across the
// given worker count, with the clock starting now.
func NewInspector(units string, total, workers int) *Inspector {
	if workers < 1 {
		workers = 1
	}
	in := &Inspector{
		units:   units,
		total:   int64(total),
		start:   time.Now(),
		stripes: make([]inspStripe, workers),
		ring:    newRing(ringCapacity, 0.1),
	}
	in.gapNano.Store(int64(0.1 * 1e9))
	return in
}

// SetAccounts attaches a ledger-account source (for example the fleet
// joule ledger's AccountTotals: its snapshot flattened to name→joules).
// Safe to call while serving.
func (in *Inspector) SetAccounts(fn func() map[string]float64) {
	if in == nil || fn == nil {
		return
	}
	in.accounts.Store(&fn)
}

// Advance reports n completed units (and their simulated unit-seconds) from
// worker w. The hot path is two uncontended atomics on the worker's own
// stripe plus one atomic load for the sampling check; the time-series
// append runs at most once per ring gap.
func (in *Inspector) Advance(w, n int, unitSeconds float64) {
	if in == nil {
		return
	}
	s := &in.stripes[uint(w)%uint(len(in.stripes))]
	s.done.Add(int64(n))
	if unitSeconds != 0 {
		s.unitSeconds.Add(unitSeconds)
	}
	now := time.Now().UnixNano()
	s.lastNano.Store(now)
	in.maybeSample(now)
}

// maybeSample appends a ring point when the gap has elapsed. The CAS elects
// one caller per gap; everyone else returns after one load and a compare.
func (in *Inspector) maybeSample(now int64) {
	last := in.lastNano.Load()
	if now-last < in.gapNano.Load() {
		return
	}
	if !in.lastNano.CompareAndSwap(last, now) {
		return
	}
	done, unitSecs := in.totals()
	gapS := in.ring.add(Point{
		TS:          float64(now-in.start.UnixNano()) / 1e9,
		Done:        done,
		UnitSeconds: unitSecs,
	})
	in.gapNano.Store(int64(gapS * 1e9))
}

// totals sums the stripes.
func (in *Inspector) totals() (done int64, unitSeconds float64) {
	for i := range in.stripes {
		done += in.stripes[i].done.Load()
		unitSeconds += in.stripes[i].unitSeconds.Value()
	}
	return done, unitSeconds
}

// Finish marks the run complete: the elapsed clock freezes, ETA drops to
// zero, and SSE watchers receive one final frame and close.
func (in *Inspector) Finish() {
	if in == nil || !in.finished.CompareAndSwap(false, true) {
		return
	}
	now := time.Now().UnixNano()
	in.finishNano.Store(now)
	done, unitSecs := in.totals()
	in.ring.add(Point{TS: float64(now-in.start.UnixNano()) / 1e9, Done: done, UnitSeconds: unitSecs})
}

// Status assembles the current progress report.
func (in *Inspector) Status() Status {
	if in == nil {
		return Status{}
	}
	now := time.Now().UnixNano()
	finished := in.finished.Load()
	if finished {
		now = in.finishNano.Load()
	}
	elapsed := float64(now-in.start.UnixNano()) / 1e9
	if elapsed <= 0 {
		elapsed = 1e-9
	}
	st := Status{
		Units:    in.units,
		Total:    in.total,
		Finished: finished,
		ElapsedS: elapsed,
		Workers:  make([]WorkerStatus, len(in.stripes)),
		Series:   in.ring.snapshot(),
	}
	var unitSecs float64
	for i := range in.stripes {
		done := in.stripes[i].done.Load()
		st.Done += done
		unitSecs += in.stripes[i].unitSeconds.Value()
		lag := 0.0
		if last := in.stripes[i].lastNano.Load(); last > 0 && !finished {
			lag = float64(now-last) / 1e9
		}
		st.Workers[i] = WorkerStatus{Worker: i, Done: done, LagS: lag}
	}
	st.RatePerSec = float64(st.Done) / elapsed
	st.UnitYearsPerSec = unitSecs / secondsPerYear / elapsed
	if !finished && st.Done > 0 && st.Total > st.Done {
		st.EtaS = float64(st.Total-st.Done) / st.RatePerSec
	}
	if fn := in.accounts.Load(); fn != nil {
		st.Accounts = (*fn)()
	}
	return st
}

// Handler serves the inspector: a plain GET returns the Status as JSON;
// with ?watch=1 (or Accept: text/event-stream) it streams SSE frames every
// ?interval (default 1s, clamped to [100ms, 30s]) until the run finishes or
// the client disconnects. Mount it on the -pprof debug server as
// /debug/fleet. Safe on a nil Inspector (404).
func (in *Inspector) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if in == nil {
			http.NotFound(w, r)
			return
		}
		if r.URL.Query().Get("watch") != "" || r.Header.Get("Accept") == "text/event-stream" {
			in.serveSSE(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(in.Status())
	})
}

// serveSSE streams status frames until the run finishes or the client goes
// away. Each frame is one `data:` line holding the Status JSON.
func (in *Inspector) serveSSE(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	interval := time.Second
	if s := r.URL.Query().Get("interval"); s != "" {
		if d, err := time.ParseDuration(s); err == nil {
			interval = d
		}
	}
	if interval < 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	if interval > 30*time.Second {
		interval = 30 * time.Second
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	t := time.NewTicker(interval)
	defer t.Stop()
	enc := json.NewEncoder(w)
	for {
		st := in.Status()
		if _, err := w.Write([]byte("data: ")); err != nil {
			return
		}
		if err := enc.Encode(st); err != nil { // Encode appends the frame's first \n
			return
		}
		if _, err := w.Write([]byte("\n")); err != nil {
			return
		}
		flusher.Flush()
		if st.Finished {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-t.C:
		}
	}
}
