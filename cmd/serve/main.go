// Command serve hosts a quantized model from cmd/deploy's pipeline as an
// HTTP/JSON classify service with adaptive micro-batching.
//
// Usage:
//
//	deploy -out model.bin -qout model.q8
//	serve -model model.q8 -addr 127.0.0.1:8080
//	curl -s http://127.0.0.1:8080/classify -d '{"instances":[[...720 floats...]]}'
//
// Concurrent requests coalesce into executor batches (up to -batch samples
// or -batch-deadline of waiting, whichever first); -workers executors run
// batches in parallel. The shared obs flags apply: -pprof serves live
// /metrics (serve.* counters and latency, decode, queue, batch and encode
// histograms) next to /debug/pprof, -trace-out records
// serve.request/serve.batch spans.
//
// A /classify body may hold up to the queue depth (4 × -batch) instances at
// 32 bytes per value; a longer body is refused with 413. The HTTP server
// allows 5 s to read request headers, 30 s to read a whole request and 30 s
// to write a reply, and closes a keep-alive connection idle for 2 min.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"solarml/internal/compute"
	"solarml/internal/nn"
	"solarml/internal/obs/cli"
	"solarml/internal/serve"
)

// Connection timeouts: a client that stalls sending headers or a body, or
// stops reading its reply, holds a connection for at most these.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	model := flag.String("model", "model.q8", "int8 model file (cmd/deploy -qout)")
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	batch := flag.Int("batch", 16, "max samples per executor batch")
	deadline := flag.Duration("batch-deadline", 2*time.Millisecond, "max wait to fill a batch (negative = never wait)")
	workers := flag.Int("workers", 2, "concurrent batch executors")
	obsFlags := cli.AddFlags(nil)
	flag.Parse()
	if err := run(*model, *addr, *batch, *deadline, *workers, obsFlags); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func run(model, addr string, batch int, deadline time.Duration, workers int, obsFlags *cli.Flags) (err error) {
	sess, err := obsFlags.Open()
	if err != nil {
		return err
	}
	defer sess.CloseWith(&err)
	sess.Manifest("serve", 0, map[string]any{
		"model": model, "addr": addr, "batch": batch,
		"batch_deadline_ms": float64(deadline) / float64(time.Millisecond),
		"workers":           workers,
	})

	f, err := os.Open(model)
	if err != nil {
		return err
	}
	m, err := nn.LoadInt8Model(f)
	f.Close()
	if err != nil {
		return err
	}
	wb, ab := m.Bits()
	fmt.Printf("model: %s | int%d/w int%d/a, %d weight bytes, %d classes\n",
		m.ArchString(), wb, ab, m.WeightBytes(), m.Classes())

	cctx := compute.NewContextFor(compute.BudgetWorkers(workers), sess.Reg)
	srv, err := serve.New(serve.Config{
		Model: m, Compute: cctx,
		MaxBatch: batch, BatchDeadline: deadline, Workers: workers,
		Reg: sess.Reg, Rec: sess.Rec,
	})
	if err != nil {
		return err
	}

	httpSrv := &http.Server{
		Addr: addr, Handler: srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout,
		WriteTimeout: writeTimeout, IdleTimeout: idleTimeout,
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "shutting down…")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
	}()

	fmt.Printf("serving on http://%s/classify (batch %d, deadline %s, workers %d)\n",
		addr, batch, deadline, workers)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		srv.Close()
		return err
	}
	srv.Close()
	return nil
}
