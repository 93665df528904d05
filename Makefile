# SolarML repo checks. `make verify` is the tier-1 gate (build + full test
# suite); `make check` adds gofmt, vet and the race detector over the
# packages with real concurrency (the obs sink, sampler, and report
# analytics, the parallel eNAS evaluator, and the parallel compute backend).

GO ?= go
# BUILD_DIR collects generated smoke artifacts (transcripts, checkpoints,
# fleet snapshots) so the repo root stays clean; it is git-ignored wholesale.
BUILD_DIR ?= build

.PHONY: verify fmt vet race check bench bench-obs bench-energy bench-fleet bench-int8 bench-json bench-smoke bench-diff smoke-report search-resume-smoke fuzz-smoke

verify:
	$(GO) build ./...
	$(GO) test ./...

# fmt fails when any Go file is not gofmt-formatted, listing the files.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./internal/obs/... ./internal/obs/energy/... ./internal/obs/fleetobs/... ./internal/obs/report/... ./internal/evo/... ./internal/enas/... ./internal/munas/... ./internal/harvnet/... ./internal/nas/... ./internal/compute/... ./internal/nn/... ./internal/serve/... ./internal/sim/... ./internal/firmware/...

check: verify fmt vet race

# bench regenerates every paper table/figure through the benchmark harness.
bench:
	$(GO) test -bench=. -benchtime=1x -benchmem

# bench-obs measures the telemetry overhead of a full eNAS search:
# recorder+registry attached (events encoded and discarded) vs the nil
# no-op sink. The delta is the recording cost (README states it per cycle).
bench-obs:
	$(GO) test -run NONE -bench 'BenchmarkSearchTelemetry' -benchtime 50x -count 3 .
	$(GO) test -run NONE -bench 'BenchmarkNoopSpan' ./internal/obs/

# bench-energy pins the joule ledger's hot-path cost: the enabled charge
# must stay allocation-free and the nil-ledger no-op near zero, so
# producers can charge unconditionally (no `if led != nil` at call sites).
# BenchmarkLedgerContention then sets striped lanes against one shared
# ledger across worker counts: the number that justifies striping the fleet
# ledger, run long enough for the contention to show.
bench-energy:
	$(GO) test -run NONE -bench 'BenchmarkLedgerCharge|BenchmarkLedgerSync|BenchmarkNoopLedger' -benchtime 100x -benchmem ./internal/obs/energy/
	$(GO) test -run NONE -bench 'BenchmarkLedgerContention' -benchtime 200000x -count 3 -benchmem ./internal/obs/energy/

# bench-fleet records the fleet simulation throughput pair into the
# trajectory: BenchmarkFleetDeviceYears (event-driven core) against
# BenchmarkFleetDeviceYearsFixedStep (1 s chunked integrator) on the same
# 32-device × 12 h workload. The event core's device-years/sec must stay
# ≥100× the fixed-step figure.
bench-fleet:
	$(MAKE) bench-json BENCH_FLAGS='-merge' BENCH_PATTERN='BenchmarkFleetDeviceYears'

# bench-int8 records the quantized serving-path trajectory: the int8
# forward pass against its float baseline (0 allocs/op and ≥2× the float
# ns/op at batch 1 are the gates), the same pass split per op
# (BenchmarkInt8Ops: quant, conv, pool, dense, logits), the model load
# that packs the dense weights, plus end-to-end serve latency across
# batch sizes. Multi-iteration benchtime: the 2× gate is a ratio of two
# microsecond-scale numbers, far too noisy at one iteration.
bench-int8:
	$(MAKE) bench-json BENCH_FLAGS='-merge' BENCH_TIME=200x BENCH_PATTERN='BenchmarkInt8Forward|BenchmarkInt8Ops|BenchmarkLoadInt8Model|BenchmarkFloatForward|BenchmarkServeLatency'

# bench-json runs the benchmarks and parses the output into the
# BENCH_solarml.json perf trajectory (benchmark → ns/op, B/op, allocs/op).
# Narrow the sweep with BENCH_PATTERN, e.g.
#   make bench-json BENCH_PATTERN='BenchmarkMatMulBackend'
BENCH_PATTERN ?= .
BENCH_FLAGS ?=
BENCH_TIME ?= 1x
bench-json:
	$(GO) test -run NONE -bench '$(BENCH_PATTERN)' -benchtime $(BENCH_TIME) -benchmem ./... | $(GO) run ./cmd/benchjson $(BENCH_FLAGS) -out BENCH_solarml.json

# bench-smoke is the CI perf gate: one iteration of the training-step and
# kernel benchmarks with -benchmem, merged into the BENCH_solarml.json
# trajectory artifact (entries outside the smoke subset are retained).
# allocs/op on the arena step is the number to watch — it must stay at 0.
# BenchmarkFig10aDigits (about 50 ms) puts a whole surrogate search, and so
# the evolution engine, in the subset beside the evaluator alone;
# BenchmarkSurrogateSearchPerfbenchShape adds the short searches of
# perfbench's surrogate-search workload, whose allocs/op bench-diff guards.
# BenchmarkDecodeInstances times the /classify decode stage alone on
# perfbench's serve body; BenchmarkInt8Ops splits the int8 forward pass per
# op and BenchmarkLoadInt8Model times the model load.
bench-smoke:
	$(MAKE) bench-json BENCH_FLAGS='-merge' BENCH_PATTERN='BenchmarkTrainStepArena|BenchmarkSurrogateEvaluation|BenchmarkSurrogateSearchPerfbenchShape|BenchmarkFig10aDigits|BenchmarkTrainStepCNNBackend|BenchmarkMatMulBackend|BenchmarkNoopSpan|BenchmarkSearchTelemetry|BenchmarkLedgerCharge|BenchmarkNoopLedgerCharge|BenchmarkFleetDeviceYears|BenchmarkIslandSearch|BenchmarkInt8Forward|BenchmarkInt8Ops|BenchmarkLoadInt8Model|BenchmarkFloatForward|BenchmarkServeLatency|BenchmarkDecodeInstances'

# bench-diff turns the BENCH_solarml.json trajectory into a perf gate:
# compare the working tree's trajectory point against the last committed
# one and fail on ns/op regressions beyond 30% (or any allocs/op growth).
# CI runs this non-blocking — single-iteration CI benches are noisy — but
# the table lands in the job log for every PR.
bench-diff:
	mkdir -p $(BUILD_DIR)
	git show HEAD:BENCH_solarml.json > $(BUILD_DIR)/bench_head.json
	$(GO) run ./cmd/benchjson -diff $(BUILD_DIR)/bench_head.json BENCH_solarml.json

# search-resume-smoke proves the checkpoint/resume contract end to end with
# real processes: an uninterrupted two-island search, the same search stopped
# at a mid-run checkpoint barrier (writing a persistent memo along the way),
# and a resumed run from the checkpoint must all land on the identical best
# genome fingerprint. CI runs this and uploads the transcripts.
search-resume-smoke:
	mkdir -p $(BUILD_DIR)
	$(GO) run ./cmd/enas-search -islands 2 -pop 12 -sample 5 -cycles 40 \
		-grid-every 8 -seed 7 -migration-interval 10 -workers 4 \
		| tee $(BUILD_DIR)/search_resume_full.txt
	rm -f $(BUILD_DIR)/search_resume.ckpt $(BUILD_DIR)/search_resume.memo
	$(GO) run ./cmd/enas-search -islands 2 -pop 12 -sample 5 -cycles 40 \
		-grid-every 8 -seed 7 -migration-interval 10 -workers 4 \
		-checkpoint $(BUILD_DIR)/search_resume.ckpt -checkpoint-every 10 -stop-after 20 \
		-cache-file $(BUILD_DIR)/search_resume.memo \
		| tee $(BUILD_DIR)/search_resume_stop.txt
	grep -q 'stopped at checkpoint' $(BUILD_DIR)/search_resume_stop.txt
	$(GO) run ./cmd/enas-search -islands 2 -pop 12 -sample 5 -cycles 40 \
		-grid-every 8 -seed 7 -migration-interval 10 -workers 4 \
		-checkpoint $(BUILD_DIR)/search_resume.ckpt -checkpoint-every 10 \
		-cache-file $(BUILD_DIR)/search_resume.memo -resume \
		| tee $(BUILD_DIR)/search_resume_resumed.txt
	grep 'fingerprint' $(BUILD_DIR)/search_resume_full.txt > $(BUILD_DIR)/search_resume_fp_full.txt
	grep 'fingerprint' $(BUILD_DIR)/search_resume_resumed.txt > $(BUILD_DIR)/search_resume_fp_resumed.txt
	diff $(BUILD_DIR)/search_resume_fp_full.txt $(BUILD_DIR)/search_resume_fp_resumed.txt
	@echo "search-resume-smoke: resumed run reproduced the uninterrupted best genome"

# smoke-report closes the telemetry loop end to end: record a tiny seeded
# search trace, analyze it with obs-report, and check the rollup is
# non-empty; record a tiny real-training search and check its report
# carries the nn.arena buffer-reuse row, and that a dataset too small for
# the train/test split is a flag error, not a panic; then record a seeded lifetime run and check the energy report
# carries the ledger accounts, and that a multi-exit ladder run reports its
# per-rung exit usage; finally run a fleet big enough to curl its
# live /debug/fleet inspector mid-run, and check the per-device
# distributions land in the CSV and the obs-report -fleet section. CI runs
# this and uploads the artifacts. The final leg exercises the serving path:
# deploy exports an int8 model and a C header of the same program (which
# must compile as warning-free C99), serve hosts the model, and one HTTP
# classify must land in the live serve.* metrics, its decode, queue and
# encode stage histograms included.
smoke-report:
	mkdir -p $(BUILD_DIR)
	$(GO) run ./cmd/enas-search -pop 10 -sample 4 -cycles 20 -seed 1 -cache \
		-trace-out $(BUILD_DIR)/smoke_run.jsonl -metrics-interval 50ms
	$(GO) run ./cmd/obs-report -trace $(BUILD_DIR)/smoke_run.jsonl \
		-perfetto $(BUILD_DIR)/smoke_run.perfetto.json -folded $(BUILD_DIR)/smoke_run.folded \
		-csv $(BUILD_DIR)/smoke_run.csv \
		| tee $(BUILD_DIR)/smoke_report.txt
	grep -q 'enas.search' $(BUILD_DIR)/smoke_report.txt
	grep -q 'per-phase breakdown' $(BUILD_DIR)/smoke_report.txt
	$(GO) build -o $(BUILD_DIR)/enas-search ./cmd/enas-search
	$(BUILD_DIR)/enas-search -eval train -train-n 60 -pop 4 -sample 2 -cycles 4 \
		-workers 2 -compute-workers 2 -seed 1 \
		-trace-out $(BUILD_DIR)/train_smoke.jsonl -metrics-interval 50ms \
		| tee $(BUILD_DIR)/train_smoke.txt
	$(GO) run ./cmd/obs-report -trace $(BUILD_DIR)/train_smoke.jsonl \
		| tee $(BUILD_DIR)/train_report.txt
	grep -q 'nn.arena' $(BUILD_DIR)/train_report.txt
	! $(BUILD_DIR)/enas-search -eval train -train-n 10 2> $(BUILD_DIR)/train_small.txt
	cat $(BUILD_DIR)/train_small.txt
	grep -q -- '-train-n 10' $(BUILD_DIR)/train_small.txt
	! grep -q 'panic:' $(BUILD_DIR)/train_small.txt
	$(GO) run ./cmd/lifetime -hours 2 -seed 1 \
		-trace-out $(BUILD_DIR)/lifetime_smoke.jsonl -metrics-interval 50ms
	$(GO) run ./cmd/obs-report -trace $(BUILD_DIR)/lifetime_smoke.jsonl -energy -quiet \
		-folded-energy $(BUILD_DIR)/lifetime_smoke.energy.folded \
		| tee $(BUILD_DIR)/lifetime_energy.txt
	grep -q 'energy accounts' $(BUILD_DIR)/lifetime_energy.txt
	grep -q 'energy critical path' $(BUILD_DIR)/lifetime_energy.txt
	$(GO) build -o $(BUILD_DIR)/lifetime ./cmd/lifetime
	$(BUILD_DIR)/lifetime -hours 2 -seed 1 -ladder > $(BUILD_DIR)/lifetime_ladder.txt
	grep 'exit usage:' $(BUILD_DIR)/lifetime_ladder.txt
	$(BUILD_DIR)/lifetime -hours 2 -devices 200000 -seed 1 \
		-pprof 127.0.0.1:9190 -fleet-csv $(BUILD_DIR)/fleet_hist.csv \
		-trace-out $(BUILD_DIR)/fleet_smoke.jsonl \
		> $(BUILD_DIR)/fleet_smoke.txt & \
	pid=$$!; \
	for i in $$(seq 1 200); do \
		curl -fs http://127.0.0.1:9190/debug/fleet \
			-o $(BUILD_DIR)/fleet_debug.json 2>/dev/null && break; \
		sleep 0.05; \
	done; \
	wait $$pid
	cat $(BUILD_DIR)/fleet_smoke.txt
	grep -q '"done"' $(BUILD_DIR)/fleet_debug.json
	grep -q '200000 devices' $(BUILD_DIR)/fleet_smoke.txt
	grep -q 'device-years/sec' $(BUILD_DIR)/fleet_smoke.txt
	grep -q 'per-device p50/p95/p99' $(BUILD_DIR)/fleet_smoke.txt
	grep -q 'energy ledger' $(BUILD_DIR)/fleet_smoke.txt
	grep -q 'final_v' $(BUILD_DIR)/fleet_hist.csv
	$(GO) run ./cmd/obs-report -trace $(BUILD_DIR)/fleet_smoke.jsonl -fleet -quiet \
		| tee $(BUILD_DIR)/fleet_report.txt
	grep -q 'per-device distribution' $(BUILD_DIR)/fleet_report.txt
	$(GO) build -o $(BUILD_DIR)/deploy ./cmd/deploy
	$(GO) build -o $(BUILD_DIR)/serve ./cmd/serve
	$(BUILD_DIR)/deploy -n 60 -epochs 2 \
		-out $(BUILD_DIR)/smoke_model.bin -qout $(BUILD_DIR)/smoke_model.q8 \
		-header $(BUILD_DIR)/smoke_model.h \
		| tee $(BUILD_DIR)/deploy_smoke.txt
	grep -q 'smaller than the float export' $(BUILD_DIR)/deploy_smoke.txt
	$(CC) -std=c99 -Wall -Wextra -Werror -fsyntax-only -x c $(BUILD_DIR)/smoke_model.h
	$(BUILD_DIR)/serve -model $(BUILD_DIR)/smoke_model.q8 -addr 127.0.0.1:9191 \
		-pprof 127.0.0.1:9192 > $(BUILD_DIR)/serve_smoke.txt 2>&1 & \
	pid=$$!; \
	for i in $$(seq 1 200); do \
		curl -fs http://127.0.0.1:9191/healthz >/dev/null 2>&1 && break; \
		sleep 0.05; \
	done; \
	awk 'BEGIN{printf "{\"instances\":[["; for(i=0;i<720;i++){printf "%s0.1",(i?",":"")}; print "]]}"}' \
		> $(BUILD_DIR)/serve_body.json; \
	curl -fs http://127.0.0.1:9191/classify -d @$(BUILD_DIR)/serve_body.json \
		> $(BUILD_DIR)/serve_reply.json; \
	curl -fs http://127.0.0.1:9192/metrics > $(BUILD_DIR)/serve_metrics.txt; \
	kill $$pid
	grep -q '"class"' $(BUILD_DIR)/serve_reply.json
	grep -q '^serve_requests 1' $(BUILD_DIR)/serve_metrics.txt
	grep -q '^serve_batches' $(BUILD_DIR)/serve_metrics.txt
	grep -q '^serve_decode_seconds_count 1' $(BUILD_DIR)/serve_metrics.txt
	grep -q '^serve_queue_seconds_count 1' $(BUILD_DIR)/serve_metrics.txt
	grep -q '^serve_encode_seconds_count 1' $(BUILD_DIR)/serve_metrics.txt
	@echo "smoke-report: serve leg classified one request over HTTP with live serve.* metrics"

# fuzz-smoke runs every Fuzz* target in the repository, one at a time, for
# FUZZ_TIME each: the decoders of untrusted bytes (model containers,
# checkpoints, memo lines, candidate and result codecs, power traces, HTTP
# bodies), the event-queue ordering, and the packed int8 dense kernels
# against a naive loop (FuzzInt8Dense). New inputs the fuzzer finds stay in
# the Go build cache; a failing input is written to the package's
# testdata/fuzz and fails the target.
FUZZ_TIME = 10s
fuzz-smoke:
	@set -e; for pkg in $$($(GO) list ./...); do \
		list=$$($(GO) test -list '^Fuzz' $$pkg); \
		for target in $$(echo "$$list" | grep '^Fuzz' || true); do \
			echo "fuzz-smoke: $$pkg $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZ_TIME) $$pkg; \
		done; \
	done
