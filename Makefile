# Targets mirror the CI pipeline (.github/workflows/ci.yml) so local runs
# match it exactly: `make ci` is what a green check means.

GO ?= go

# The concurrency-heavy packages the race job covers.
RACE_PKGS = ./internal/async/... ./internal/netrun/... ./internal/multi/... \
            ./internal/sim/... ./internal/experiments/... ./internal/service/... \
            ./internal/causal/...

.PHONY: all build test vet fmt-check race flake-check chaos chaos-proc telemetry trace \
        bench-smoke bench-json bench-gate bench-e2e-smoke bench-warm bench-wire \
        scale-smoke service-smoke soak staticcheck govulncheck ci

# The warm-start workload behind BENCH_6.json, minus its output file:
# bench-warm writes BENCH_6.json with it, and bench-smoke checks that it
# still reproduces the committed file byte for byte.
BENCH_WARM = $(GO) run ./cmd/dcspbench -warmstart all -instances 10 -inits 3 -progress=false

# The paired (ref vs dense) benchmarks bench-json compares.
BENCH_PAIRED = BenchmarkProbeViewCheckLoop|BenchmarkStoreAddPruning|BenchmarkResolventDerivation|BenchmarkTable1Representations

# The wire-throughput pairings and baseline-free invariants shared by
# bench-wire and its slice of bench-gate: each pair measures
# BenchmarkWireThroughput's plain-JSON leg against one upgrade (binary
# codec, frame batching, or both). The headline binary+batched pair must
# beat plain JSON by at least 2x and stay allocation-free per op, and the
# binary codec alone must also clear 2x; json-only batching is reported but
# not floored (it trades latency for fewer syscalls, not raw per-op time).
# The crc pair holds the checksummed binary+batched path to the same 2x
# floor and zero allocs, so frame integrity stays effectively free.
BENCH_WIRE_FLAGS = -pair codec=json_plain:binary_plain \
	-pair batch=json_plain:json_batch \
	-pair binary_batch=json_plain:binary_batch \
	-pair crc=json_plain:binary_batch_crc \
	-min-speedup 'WireThroughput/codec=2,WireThroughput/binary_batch=2,WireThroughput/crc=2' \
	-alloc-free 'WireThroughput/binary_batch,WireThroughput/crc' \
	-note 'before = plain JSON framing, after = the named wire upgrade (binary codec, frame batching, CRC32C trailers, or a combination) over a TCP loopback echo; one op is one envelope round trip'

all: build

build:
	$(GO) build ./...

test:
	$(GO) test -timeout 15m ./...

# bench/ is its own module, which the root ./... skips; it compiles against
# the runtimes' exported names, so it is vetted too.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet .

fmt-check:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; \
		echo "$$unformatted" >&2; \
		exit 1; \
	fi

race:
	$(GO) test -race -timeout 20m $(RACE_PKGS)

# The tests whose flakes were classified and fixed, rerun many times (and
# again under the race detector) so a timing-dependent assertion fails here
# instead of passing once by luck: the resumed-grid determinism check, the
# three crash-restart tests, the three corrupt-frame tests (one of them
# with crash-restarts, for the corrupt-count race), the three tests that
# sever or blackhole worker links through a proxy, the daemon's
# submit-to-verdict lifecycle, and its /metrics read right after a verdict.
# Flakes not yet classified stay out until they are fixed:
# TestNetrunCrashRestartABTInsoluble and TestChaosCrashPointSweep.
FLAKE_TESTS = ^(TestResumeCellDeterminism|TestNetrunCrashRestartAWC|TestShardCodecMatrixCrashRestart|TestCausalSurvivesCrashRestart|TestCorruptFramesRecoveredByCRC|TestCorruptWithoutChecksumDegradesToDrop|TestCorruptFramesAcrossCrashRestart|TestWorkerReconnectAfterSever|TestCausalSurvivesColdReconnect|TestDeadPeerDetection|TestSubmitSolveLifecycle|TestHTTPMetricsExposition)$$

flake-check:
	$(GO) test -count=50 -timeout 20m -run '$(FLAKE_TESTS)' ./internal/experiments/ ./internal/netrun/ ./internal/service/
	$(GO) test -race -count=10 -timeout 20m -run '$(FLAKE_TESTS)' ./internal/experiments/ ./internal/netrun/ ./internal/service/

# The fault-injection suite under the race detector: reliable transport,
# crash-restart recovery, and the chaos acceptance matrix (every algorithm
# family reaching its clean-network verdict under seeded drop/dup/crash
# and partition windows). `make chaos CHAOS_LONG=1` additionally runs the
# long sweeps (seeds × schedules × families) the nightly CI job uses.
chaos:
	CHAOS_LONG=$(CHAOS_LONG) $(GO) test -race -timeout 40m ./internal/faults/... ./internal/async/... ./internal/netrun/...

# The process-level chaos job: the liveness/reconnection suite under the
# race detector, then the acceptance harness that SIGKILLs a real dcspnode
# worker mid-solve, relaunches it cold, and requires the verdict and
# assignment to match a clean run of the same seed (gated behind
# CHAOS_PROC because it builds and kills real processes).
chaos-proc:
	$(GO) test -race -timeout 20m -run 'TestWorker|TestDeadPeer|TestReconnect|TestNegativeGrace|TestCorrupt|TestLiveness' ./internal/netrun/
	$(GO) test -race -timeout 10m ./internal/wire/ ./internal/faults/ ./internal/backoff/
	CHAOS_PROC=1 $(GO) test -race -run TestChaosProc -v -timeout 15m ./cmd/dcspnode/

# The telemetry job's gating half: the on/off bit-identical inertness
# tests (results, cycle events, cell aggregates across all three runtimes),
# the async and tcp stream-shape and timeout tests, and the store-hook
# accounting tests, under the race detector. The CI job additionally
# smoke-tests the live /metrics endpoint and captures a Table-1 telemetry
# stream.
telemetry:
	$(GO) test -race -timeout 10m -run 'TestTelemetryInert|TestServeMetrics|TestRunRecord' .
	$(GO) test -race -timeout 5m -run 'TestStore.*Instrument|TestStoreRestore' ./internal/nogood/

# The tracing job (CI trace-smoke): the tracing on/off inertness,
# critical-path, provenance-termination, and failure-path tests under the
# race detector, then the binary smoke — a seeded solve with -causal piped
# through dcsptrace's critical-path and Perfetto exports, asserting a
# non-empty path and valid JSON; a traced dcspnode worker owning every
# variable behind a hub started without -causal, asserting the hub solved
# and the worker's own critical path holds wire time (trace IDs crossed
# the untraced hub); a seeded sync solve's -telemetry stream summarized by
# dcsptrace -cycles, asserting its per-cycle peaks; and a -block solve
# with -telemetry, which must be refused (that path records no stream).
trace:
	$(GO) test -race -timeout 10m -run 'TestCausal' . ./internal/netrun/
	$(GO) test -timeout 5m ./internal/causal/ ./cmd/dcsptrace/
	$(GO) build -o dcspgen ./cmd/dcspgen
	$(GO) build -o dcspsolve ./cmd/dcspsolve
	$(GO) build -o dcspnode ./cmd/dcspnode
	$(GO) build -o dcsptrace ./cmd/dcsptrace
	./dcspgen -family d3c -n 30 -seed 11 -o trace-smoke.col
	./dcspsolve -causal -trace-out trace-smoke.jsonl -seed 11 trace-smoke.col
	./dcsptrace -critical-path trace-smoke.jsonl | tee trace-smoke-path.txt
	grep -Eq 'critical path: [1-9][0-9]* steps' trace-smoke-path.txt
	./dcsptrace -provenance all trace-smoke.jsonl > /dev/null
	./dcsptrace -perfetto trace-smoke-perfetto.json trace-smoke.jsonl
	python3 -m json.tool trace-smoke-perfetto.json > /dev/null
	./dcspsolve -tcp -tcp-external -tcp-listen 127.0.0.1:7431 trace-smoke.col > trace-smoke-hub.txt & hub=$$!; \
	./dcspnode -connect 127.0.0.1:7431 -vars 0-29 -causal -trace-out trace-smoke-worker.jsonl trace-smoke.col; \
	worker=$$?; wait $$hub && [ $$worker -eq 0 ]
	cat trace-smoke-hub.txt
	grep -q 'solved=true' trace-smoke-hub.txt
	./dcsptrace -critical-path trace-smoke-worker.jsonl | tee trace-smoke-worker-path.txt
	grep -Eq 'wire [1-9][0-9]*us' trace-smoke-worker-path.txt
	rm -f trace-smoke-refused.jsonl
	if ./dcspsolve -tcp -tcp-external -causal -trace-out trace-smoke-refused.jsonl trace-smoke.col; then \
		echo "dcspsolve -tcp -tcp-external accepted -causal" >&2; exit 1; \
	fi
	test ! -e trace-smoke-refused.jsonl
	./dcspsolve -telemetry trace-smoke-telemetry.jsonl -seed 11 trace-smoke.col
	./dcsptrace -cycles trace-smoke-telemetry.jsonl | tee trace-smoke-cycles.txt
	grep -q '^busiest cycle: ' trace-smoke-cycles.txt
	if ./dcspsolve -block 3 -telemetry trace-smoke-block.jsonl trace-smoke.col; then \
		echo "dcspsolve -block accepted -telemetry" >&2; exit 1; \
	fi

# One iteration of the Table-1 benchmarks, then the two harness paths that
# call the solver facade: the runtime comparison with its tcp leg traced
# across two relay shards (dcsptrace must find a non-empty critical path),
# and the warm-start workload, which must reproduce BENCH_6.json exactly.
bench-smoke:
	$(GO) test -bench=BenchmarkTable1 -benchtime=1x -run='^$$' -timeout 10m .
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/" ./cmd/dcspbench ./cmd/dcsptrace && \
	"$$tmp/dcspbench" -runtimes d3c -sweepn 20 -shards 2 -causal -trace-out "$$tmp/runtimes.jsonl" && \
	"$$tmp/dcsptrace" -critical-path "$$tmp/runtimes.jsonl" | tee "$$tmp/path.txt" && \
	grep -Eq 'critical path: [1-9]' "$$tmp/path.txt" && \
	$(BENCH_WARM) -warmout "$$tmp/b6.json" && \
	cmp "$$tmp/b6.json" BENCH_6.json

# Regenerates BENCH_2.json: runs the benchmarks that pair a map-backed
# reference variant (/ref) against the dense default (/dense) and converts
# the output into a before/after report. Informational — wall-clock numbers
# vary by machine; the charged check counts they share do not.
bench-json:
	$(GO) test -run='^$$' -bench='$(BENCH_PAIRED)' -benchmem -timeout 20m . \
		| $(GO) run ./cmd/benchjson -o BENCH_2.json

# The blocking CI perf gate: reruns the paired benchmarks and compares
# against the committed BENCH_2.json. Wall-clock gating uses the speedup
# ratio (before/after on the same machine, so runner hardware cancels out)
# with a 15% tolerance; the probe-view check loop additionally fails on any
# allocs/op increase. A legitimate perf change re-baselines by committing
# the output of `make bench-json`.
bench-gate:
	$(GO) test -run='^$$' -bench='$(BENCH_PAIRED)' -benchmem -timeout 20m . \
		| $(GO) run ./cmd/benchjson -o bench-new.json -baseline BENCH_2.json
	$(GO) test -run='^$$' -bench=BenchmarkWireThroughput -benchmem -timeout 20m ./internal/wire/ \
		| $(GO) run ./cmd/benchjson -o bench-wire-new.json $(BENCH_WIRE_FLAGS) \
			-baseline BENCH_7.json -tolerance 0.5

# The end-to-end benchmark's smoke pass (CI bench-e2e-smoke): the bench/
# module's own tests, then a short run of each sync workload, of async, of
# tcp and of dcspd-mixed at the default seed. Every sync run checks the
# cycles, maxcck and checks that bench/testdata/golden.json pins, so this
# is the direct guard that work on the simulator or the agent step never
# moves the paper's cost model. The async run verifies every trial's verdict with agents
# stepping concurrently, which holds the runtimes to Step's output-slice
# contract. The tcp run verifies every trial's verdict over the loopback
# hub, where nodes step once per socket read. The dcspd-mixed run sends
# jobs through the daemon, the other caller of SolveTCP. A run passes only
# when its last line, the result object, reports "correct":true.
bench-e2e-smoke:
	cd bench && $(GO) test .
	for w in sync-learn sync-nolearn async tcp dcspd-mixed; do \
		bash bench/run.sh -workload $$w -seed 1 -seconds 2 -trace 0 > bench-e2e-$$w.txt; \
		cat bench-e2e-$$w.txt; \
		tail -n 1 bench-e2e-$$w.txt | grep -q '"correct":true' || exit 1; \
	done

# Regenerates BENCH_7.json: the wire-throughput report comparing JSON vs
# binary framing and plain vs batched delivery over a TCP loopback echo.
# The baseline-free floors in BENCH_WIRE_FLAGS apply here too, so a
# regenerated baseline can never launder the headline speedup away. The
# gate slice above recompares against the committed report with a loose 50%
# tolerance — loopback round-trip ratios drift more across runners than the
# pure-CPU BENCH_2 loops, and the absolute 2x floors are the hard invariant.
bench-wire:
	$(GO) test -run='^$$' -bench=BenchmarkWireThroughput -benchmem -timeout 20m ./internal/wire/ \
		| $(GO) run ./cmd/benchjson -o BENCH_7.json $(BENCH_WIRE_FLAGS)

# The CI scale-smoke job: a 1024-agent solve over 4 sharded relays with
# the binary codec (gated behind SCALE_SMOKE because it opens ~2k real TCP
# connections), then short coverage-guided fuzz passes over the binary
# codec round trip, the batch splitter, and the hand-written problem JSON
# decoder against encoding/json.
scale-smoke:
	SCALE_SMOKE=1 $(GO) test -run TestScaleSmoke1k -v -timeout 10m ./internal/netrun/
	$(GO) test -run='^$$' -fuzz=FuzzEnvelopeRoundTrip -fuzztime=10s -timeout 5m ./internal/wire/
	$(GO) test -run='^$$' -fuzz=FuzzBatchSplit -fuzztime=10s -timeout 5m ./internal/wire/
	$(GO) test -run='^$$' -fuzz=FuzzReadProblemJSON -fuzztime=10s -timeout 5m ./internal/csp/

# The dcspd acceptance sequence against the real binary (gated behind
# SERVICE_SMOKE because it builds, kills, and restarts daemon processes):
# overload shedding with 429s, SIGKILL mid-run, restart replaying every
# journaled job to a verdict, SIGTERM drain exiting 0, and a third start
# serving the drained results from the journal.
service-smoke:
	SERVICE_SMOKE=1 $(GO) test -run TestServiceSmoke -v -timeout 10m ./cmd/dcspd/

# Regenerates BENCH_6.json: the warm-start repeat-solve workload (cold vs
# cache-seeded solves of the same instance) across all three families at
# paper sizes, 10 instances x 3 initializations per cell.
bench-warm:
	$(BENCH_WARM) -warmout BENCH_6.json

# The nightly retention soak: long bounded-store runs across families and
# both eviction policies, asserting the learned population never exceeds
# the cap and that verdicts match the unbounded reference on the same
# seeds. The short ungated slice runs in every `make test`.
soak:
	RETENTION_SOAK=1 $(GO) test -race -timeout 40m -run 'TestRetentionSoak' ./internal/experiments/

# Static analysis beyond vet. CI installs the tools on the runner; locally
# they are skipped with a notice when not installed (this repo's build
# containers are offline).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI runs it)"; \
	fi

ci: build vet fmt-check staticcheck govulncheck test race flake-check chaos chaos-proc telemetry trace bench-smoke bench-gate bench-e2e-smoke scale-smoke service-smoke
