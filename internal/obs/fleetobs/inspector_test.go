package fleetobs

import (
	"bufio"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"solarml/internal/obs"
	"solarml/internal/obs/energy"
)

func TestInspectorStatus(t *testing.T) {
	in := NewInspector("devices", 100, 4)
	in.SetAccounts(func() map[string]float64 {
		return map[string]float64{"harvest": 12.5}
	})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				in.Advance(w, 1, 3600)
			}
		}(w)
	}
	wg.Wait()

	st := in.Status()
	if st.Done != 40 || st.Total != 100 || st.Units != "devices" {
		t.Fatalf("status = %+v", st)
	}
	if st.Finished {
		t.Fatal("finished before Finish()")
	}
	if st.RatePerSec <= 0 || st.EtaS <= 0 {
		t.Fatalf("rate/eta not positive: %+v", st)
	}
	if len(st.Workers) != 4 {
		t.Fatalf("workers = %d", len(st.Workers))
	}
	for _, w := range st.Workers {
		if w.Done != 10 {
			t.Fatalf("worker %d done = %d, want 10", w.Worker, w.Done)
		}
	}
	if st.Accounts["harvest"] != 12.5 {
		t.Fatalf("accounts = %v", st.Accounts)
	}

	in.Finish()
	st = in.Status()
	if !st.Finished || st.EtaS != 0 {
		t.Fatalf("post-finish status = %+v", st)
	}
	if len(st.Series) == 0 {
		t.Fatal("no series points after Finish")
	}
}

func TestInspectorHandlerJSON(t *testing.T) {
	in := NewInspector("devices", 10, 2)
	in.Advance(0, 3, 60)
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/debug/fleet", nil)
	in.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type %q", ct)
	}
	var st Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if st.Done != 3 || st.Total != 10 {
		t.Fatalf("decoded status = %+v", st)
	}
}

func TestInspectorHandlerNil(t *testing.T) {
	var in *Inspector
	rec := httptest.NewRecorder()
	in.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/fleet", nil))
	if rec.Code != 404 {
		t.Fatalf("nil inspector status %d, want 404", rec.Code)
	}
}

// TestInspectorSSE watches a short run over the event-stream path and
// checks frames arrive and the stream closes after Finish.
func TestInspectorSSE(t *testing.T) {
	in := NewInspector("devices", 5, 1)
	in.Advance(0, 2, 10)

	srv := httptest.NewServer(in.Handler())
	defer srv.Close()

	done := make(chan []Status, 1)
	go func() {
		resp, err := srv.Client().Get(srv.URL + "?watch=1&interval=100ms")
		if err != nil {
			done <- nil
			return
		}
		defer resp.Body.Close()
		var frames []Status
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var st Status
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err == nil {
				frames = append(frames, st)
			}
		}
		done <- frames
	}()

	in.Advance(0, 3, 10)
	in.Finish()
	frames := <-done
	if len(frames) == 0 {
		t.Fatal("no SSE frames received")
	}
	last := frames[len(frames)-1]
	if !last.Finished || last.Done != 5 {
		t.Fatalf("final frame = %+v", last)
	}
}

// TestConcurrentScrapeRace is the race-detector workout of the fleet path:
// workers book simulated devices into private energy books, fold each into
// the one joule ledger and report to the inspector, while ledger syncs and
// registry snapshots (the sampler's and the Prometheus scrape's paths) run
// concurrently.
func TestConcurrentScrapeRace(t *testing.T) {
	reg := obs.NewRegistry()
	led := energy.NewLedger(reg)
	in := NewInspector("devices", 10000, 4)

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 2000; i++ {
				var b energy.Books
				b.Charge(energy.AccountInfer, 1e-6)
				b.ObserveInteraction(float64(i%100) * 1e-6)
				led.Fold(&b)
				in.Advance(w, 1, 1)
			}
		}(w)
	}

	// Scrapers: publish the ledger, snapshot the registry and hit the
	// inspector status while the workers are writing. Two run side by
	// side to exercise concurrent syncs.
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				led.Sync()
				_ = reg.Snapshot()
				_ = in.Status()
			}
		}()
	}

	writers.Wait()
	close(stop)
	readers.Wait()

	led.Sync()
	s := reg.Snapshot()
	if got := s.Histograms[energy.HistInteractionUJ].Count; got != 8000 {
		t.Fatalf("interaction histogram count = %d, want 8000", got)
	}
	if got := s.Counters[energy.AccountCounter(energy.AccountInfer)]; got != 8000 {
		t.Fatalf("infer counter = %d µJ, want 8000", got)
	}
	if got := in.Status().Done; got != 8000 {
		t.Fatalf("inspector done = %d, want 8000", got)
	}
}
