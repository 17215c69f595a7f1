# Kamino-Tx reproduction — build and verification targets.

GO ?= go

.PHONY: build test vet fmt race fuzz-smoke doccheck benchmark-check check bench bench-gate serve-smoke recovery-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt fails if gofmt would change any Go file in the repository (the
# benchmark module included).
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l is not clean:"; echo "$$out"; exit 1; fi

# race runs the measurement layer, every engine, and the layers under them
# under the race detector: the shared stats.Collector, the workload
# generators, the engines' counter/phase instrumentation, the trace
# recorder, and the lock table's buckets and the one mutex each of the heap's
# free lists, the intent log's free-slot stack and a strict NVM region's line
# sets has are all touched from multiple goroutines; their contention tests
# (concurrent reserve, Begin/Release churn, concurrent persist and a crash
# during persists) repeat twenty times. The chain, membership, and persistent-queue
# packages ride along: their view-change and watcher tests only catch the
# historical races under the detector, and ./kamino/... brings the chaos
# schedule (kamino/chain/chaos_test.go: kills, rejoins and a head reboot
# under six clients, online auditor attached, a sampler goroutine reading
# the chain's debug state, queue stats and registries through all of it).
# The server package covers the
# slow-request ring and the per-request phase handoffs, and repeats the
# drain audit, whose request-admission-versus-wait ordering shows a race
# only about one run in eight when it is wrong, and the client's sends
# racing its flusher and a Close. The chain's batched hop repeats too: a
# view change's resend cut into batches and appended by a receiver that
# drops the prefix it holds, a middle killed mid-batch, and records that
# overtake a resend. internal/simtime is the wait
# every simulated latency goes through (its yield tests pin one processor),
# and internal/transport the in-process hop that spends it. internal/kvstore
# brings the strict two-writer preload that a power failure must not dent
# (neighbouring allocations store into shared device lines at once). The
# allocation pins (internal/kvstore/allocs_test.go, locktable's, both part of
# `make test`) skip themselves here: testing.AllocsPerRun counts the detector's own
# allocations (internal/race.Enabled is the build-tagged constant they read).
race:
	$(GO) test -race -count=20 -run 'TestDrainZeroLoss|TestClientConcurrentSendsAndClose' ./internal/server/
	$(GO) test -race -count=20 -run 'TestResendIsBatched|TestKillMidBatchConverges|TestOvertakingRecordsAreNotAppended' ./internal/chain/
	$(GO) test -race -count=20 -run 'TestConcurrentReserveNoAliasing|TestConcurrentBeginReleaseChurn|TestConcurrentPersistDisjointLines|TestCrashDuringConcurrentPersists' ./internal/heap/ ./internal/intentlog/ ./internal/nvm/
	$(GO) test -race ./internal/stats/... ./internal/workload/... ./internal/engine/... ./internal/obs/... ./internal/trace/... ./kamino/... ./internal/locktable/... ./internal/heap/... ./internal/intentlog/... ./internal/nvm/... ./internal/simtime/... ./internal/transport/... ./internal/pbtree/... ./internal/chain/... ./internal/membership/... ./internal/pqueue/... ./internal/server/... ./internal/kvstore/...

# doccheck fails if any exported identifier under internal/ or kamino/
# lacks a godoc comment, or any package — including the cmd/ and tools/
# commands — lacks a package-level doc comment (see tools/doccheck for
# the exact rules).
doccheck:
	$(GO) run ./tools/doccheck cmd internal kamino tools

# fuzz-smoke runs three fuzzers for ten seconds each past their seed corpora
# (which every `go test` already runs): the ring-image fuzzer — pqueue.Attach
# must answer any bytes with an error or a usable queue — the heap's
# rescan fuzzer, which power-fails inside heap calls, a carve's header
# persist among them, and requires Rescan to find every committed block, and
# the KV wire fuzzer — both frame decoders must answer any bytes with an
# error or a value that re-encodes to the same bytes. The
# minimizer is capped because its default budget, a minute per new input,
# would otherwise eat the run.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz=FuzzAttach -fuzztime=10s -fuzzminimizetime=1s ./internal/pqueue/
	$(GO) test -run '^$$' -fuzz=FuzzRescan -fuzztime=10s -fuzzminimizetime=1s ./internal/heap/
	$(GO) test -run '^$$' -fuzz=FuzzKVWire -fuzztime=10s -fuzzminimizetime=1s ./internal/transport/

# benchmark-check vets and tests the gated benchmark, which is its own module
# (benchmark/go.mod) and so is outside every ./... above: the code whose
# numbers decide each PR must at least compile and pass its own tests.
benchmark-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# check is the full gate: tier-1 build+test plus gofmt, vet, the race pass,
# the fuzz smoke, the godoc-coverage check, and the benchmark module's own
# vet and tests.
check: build fmt vet test race fuzz-smoke doccheck benchmark-check

# bench prints one of the paper's figures (EXPERIMENTS.md has the index and
# the scale its tables were recorded at). It prints a table to read; numbers
# are compared with bench-gate and benchmark/README.md's procedure.
bench: build
	$(GO) run ./cmd/kaminobench -experiment fig12

# bench-gate runs the gated benchmark (benchmark/README.md; BENCHMARK.json
# is its contract) — all five workloads, both halves, then the ladder, about
# four minutes — and compares the result with the checked-in seed-1 baseline:
# one row per workload and end-to-end metric, `regressed` where the new
# median is worse than the baseline's by more than the metric's bound.
# Report-only: the comparison's exit status is ignored (the baseline was
# recorded on another day's host, and this host drifts by more than some
# bounds between days — benchmark/README.md "What is gated and why"); the
# target fails only if the benchmark itself does, i.e. an operation failed
# or an output was wrong. A gain or a regression is claimed from ten
# alternating parent/change pairs, not from this table.
bench-gate:
	bash benchmark/run.sh -seed 1
	-bash benchmark/run.sh -compare benchmark/baseline/seed1-a.json benchmark/out/result.json

# serve-smoke exercises the network service end to end with real
# processes: kaminod serves a file-backed store with tracing on,
# kaminoload preloads and drives a short open-loop sweep with per-phase
# breakdowns, /debug/requests must answer with valid JSON holding at least
# one captured request, /metrics — the one rendering of the registries —
# must answer Prometheus text carrying both the server registry's and the
# engine registry's series and the slow ring's floor gauge (what a
# slow-request alert keys on) while / answers 404, then SIGTERM drains the
# server — the target fails unless kaminod exits 0 (clean drain +
# checkpoint) and the Chrome trace export parses.
serve-smoke: build
	rm -rf out/serve && mkdir -p out/serve
	$(GO) build -o out/serve/kaminod ./cmd/kaminod
	$(GO) build -o out/serve/kaminoload ./cmd/kaminoload
	./out/serve/kaminod -dir out/serve/db -addr 127.0.0.1:17070 -metrics-addr 127.0.0.1:17071 \
		-trace-out out/serve/trace.json -slow-requests 32 & \
	KPID=$$!; \
	sleep 1; \
	./out/serve/kaminoload -addr 127.0.0.1:17070 -preload -keys 2000 -value 256 \
		-rates 2000,5000 -duration 1s -breakdown || { kill $$KPID; exit 1; }; \
	curl -fsS http://127.0.0.1:17071/debug/requests -o out/serve/requests.json || { kill $$KPID; exit 1; }; \
	jq -e '.records | length >= 1' out/serve/requests.json >/dev/null || \
		{ echo "serve-smoke: /debug/requests empty or not JSON"; kill $$KPID; exit 1; }; \
	curl -fsS http://127.0.0.1:17071/metrics -o out/serve/metrics.txt || { kill $$KPID; exit 1; }; \
	grep -q '^# TYPE kaminotx_' out/serve/metrics.txt && \
		grep -q '^kaminotx_[a-z_]*{registry="server"} [1-9]' out/serve/metrics.txt && \
		grep -q '^kaminotx_commits_total{registry="kamino"} [1-9]' out/serve/metrics.txt || \
		{ echo "serve-smoke: /metrics lacks the server or the engine registry's series"; kill $$KPID; exit 1; }; \
	grep -q '^kaminotx_slow_ring_floor_ns{registry="server"} ' out/serve/metrics.txt || \
		{ echo "serve-smoke: /metrics lacks the slow ring's floor gauge"; kill $$KPID; exit 1; }; \
	test "$$(curl -s -o /dev/null -w '%{http_code}' http://127.0.0.1:17071/)" = 404 || \
		{ echo "serve-smoke: / must answer 404 (/metrics is the one rendering)"; kill $$KPID; exit 1; }; \
	kill -TERM $$KPID; \
	wait $$KPID || { echo "serve-smoke: kaminod did not exit cleanly"; exit 1; }
	test -s out/serve/trace.json && jq -e '.traceEvents | length >= 1' out/serve/trace.json >/dev/null || \
		{ echo "serve-smoke: Chrome trace export missing or empty"; exit 1; }
	@echo "serve-smoke: clean drain, slow-request ring and /metrics served, trace exported"

# recovery-smoke proves the restart path end to end with real processes
# and a real kill -9: kaminod serves a file-backed store, kaminoload
# preloads 2000 acked writes and reads them back, SIGUSR1 takes an online
# checkpoint (quiesce, persist, resume — the durability point of the
# simulated NVM, which is memory-held between checkpoints), then the
# process dies with no shutdown path running. The second kaminod must
# (a) run the staged recovery pipeline — its log carries the per-stage
# report, (b) answer /readyz with only "recovering" before it answers
# "ok", and (c) serve every checkpointed acked write back byte-identical
# (kaminoload -verify fails on the first lost or corrupt key). A final
# SIGTERM must still drain cleanly (exit 0).
recovery-smoke: build
	rm -rf out/recovery && mkdir -p out/recovery
	$(GO) build -o out/recovery/kaminod ./cmd/kaminod
	$(GO) build -o out/recovery/kaminoload ./cmd/kaminoload
	./out/recovery/kaminod -dir out/recovery/db -addr 127.0.0.1:17090 -metrics-addr 127.0.0.1:17091 \
		> out/recovery/kaminod1.log 2>&1 & \
	KPID=$$!; \
	for i in $$(seq 1 50); do \
		curl -fsS http://127.0.0.1:17091/readyz >/dev/null 2>&1 && break; sleep 0.2; done; \
	./out/recovery/kaminoload -addr 127.0.0.1:17090 -preload -verify -keys 2000 -value 256 || { kill -9 $$KPID; exit 1; }; \
	kill -s USR1 $$KPID; \
	for i in $$(seq 1 50); do \
		grep -q "online checkpoint written" out/recovery/kaminod1.log && break; sleep 0.2; done; \
	grep -q "online checkpoint written" out/recovery/kaminod1.log || \
		{ echo "recovery-smoke: SIGUSR1 checkpoint never completed"; kill -9 $$KPID; exit 1; }; \
	kill -9 $$KPID; wait $$KPID 2>/dev/null; true
	./out/recovery/kaminod -dir out/recovery/db -addr 127.0.0.1:17090 -metrics-addr 127.0.0.1:17091 \
		> out/recovery/kaminod2.log 2>&1 & \
	KPID=$$!; \
	: > out/recovery/readyz.log; \
	for i in $$(seq 1 100); do \
		curl -sS http://127.0.0.1:17091/readyz 2>/dev/null | jq -r '.state' >> out/recovery/readyz.log; \
		grep -qx ok out/recovery/readyz.log && break; sleep 0.1; done; \
	grep -qx ok out/recovery/readyz.log || { echo "recovery-smoke: /readyz never reached ok"; kill $$KPID; exit 1; }; \
	grep -vx -e ok -e recovering -e '' out/recovery/readyz.log && \
		{ echo "recovery-smoke: unexpected /readyz state during restart"; kill $$KPID; exit 1; }; \
	grep -q "recovery:" out/recovery/kaminod2.log || \
		{ echo "recovery-smoke: no staged recovery report in kaminod log"; kill $$KPID; exit 1; }; \
	./out/recovery/kaminoload -addr 127.0.0.1:17090 -verify -keys 2000 -value 256 || \
		{ echo "recovery-smoke: acked writes lost after kill -9"; kill $$KPID; exit 1; }; \
	kill -TERM $$KPID; \
	wait $$KPID || { echo "recovery-smoke: kaminod did not exit cleanly after recovery"; exit 1; }
	@echo "recovery-smoke: kill -9 recovered, staged report logged, readyz recovering->ok, zero acked writes lost"
