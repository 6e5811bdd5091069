GO ?= go

# The targets below are exactly what .github/workflows/ci.yml runs, so a
# green `make ci` locally means a green CI run.

.PHONY: build vet fmt-check lint test race race-fabric fuzz-smoke bench bench-check bench-gate obs-overhead load-smoke ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Project linter: webdoclint type-checks every package and enforces
# the invariants go vet cannot see — atomic-write discipline, errors.Is
# over sentinel ==, trace propagation in handler scopes, and a non-test
# caller for every name declared in internal/ (unreached: a name only
# tests call is moved into a test file, deleted or waived with the
# paper section or the test it serves). Zero dependencies; the only
# waivers are reasoned //lint:ignore comments.
# The second step keeps encoding/gob out of the module: every RPC body
# and every durable file has one binary encoding (internal/wire), and a
# gob import would be a second one growing back. Tests may import it to
# craft the inputs the readers must reject.
lint:
	$(GO) run ./cmd/webdoclint ./...
	@out="$$(grep -rl --include='*.go' '"encoding/gob"' . | grep -v '_test\.go$$')"; \
	if [ -n "$$out" ]; then \
		echo "encoding/gob imported outside tests:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

# Besides the locking stress tests (among them eight readers' first
# lookup through an unbuilt hash index beside a writer), this job
# carries the persistence crash matrix: checkpoint + WAL-tail
# recovery, kill-mid-checkpoint fallback, torn-tail replay,
# BLOB-sidecar generation coupling, every
# document operation's WAL cut at each record boundary and checked
# against the invariant oracle, BLOB reference counts re-derived from
# the rows after a WAL tail, and
# the content index's rebuild from the recovered rows (after a clean
# checkpoint, after a WAL tail, beside an older build's leftover
# search-<gen> file) plus its concurrent index/query stress.
# internal/obs rides along: its span ring, histogram and event
# journal ring are written to from every RPC goroutine, so the race
# detector is the proof they are safe to leave always-on.
# internal/wire, internal/blob and
# internal/loadgen joined the matrix with the binary codec and load
# harness work: codec buffers, blob generation handoff and the load
# recorder's per-worker rings all see concurrent writers.
race:
	$(GO) test -race ./internal/relstore/... ./internal/docdb/... ./internal/search/... ./internal/obs/... ./internal/wire/... ./internal/blob/... ./internal/loadgen/...

# The live distribution layer under the race detector: the in-process
# multi-station fabric (including the 13-station failure/repair run,
# the streamed catch-up parity tests, the scatter-gather search
# parity run and the three-gather table with a killed interior
# station, and the fan-out kernel's socket-free classification
# matrix), the station RPC node, the pooled transport with chunked
# response streaming, the server's in-order test (transport's
# TestOneConnectionAnswersInOrder: a connection's requests are served
# one at a time on its own goroutine and answered in the order they
# came), the two dial-deadline tests (transport's
# TestCallTimeoutBoundsTheDial and fabric's
# TestProbeTimeoutBoundsTheDial: a call or a heartbeat sweep against a
# host that accepts no connections ends within its timeout), and the
# subprocess crash tests (SIGKILL mid-broadcast + rejoin, SIGKILL after
# a checkpoint, SIGKILL after a tail-free checkpoint with the index
# rebuilt) against real webdocd processes.
race-fabric:
	$(GO) test -race ./internal/fabric/... ./internal/cluster/... ./internal/transport/... ./cmd/webdocd/...

# Ten seconds of coverage-guided fuzzing per target over the committed
# seed corpora: the minisql parser, the transport frame codec, the
# fabric's binary push body, the plan-driven body decoder, the bundle
# decoder every rejoin document passes through and the three
# durable-file readers (WAL replay, relational snapshot, BLOB sidecar)
# must reject hostile input with errors, never panics; and the
# interning value decoder recovery reads rows through must decode
# every input exactly as the plain one does. An input that
# reaches new coverage is minimized for at most 100 ms: under Go's 60 s
# default the first such input takes the rest of the window, and a
# 1 s budget still spends most of it minimizing on the slower targets.
fuzz-smoke:
	$(GO) test ./internal/minisql -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s -fuzzminimizetime 100ms
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzDecodeBody$$' -fuzztime 10s -fuzzminimizetime 100ms
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzValueIn$$' -fuzztime 10s -fuzzminimizetime 100ms
	$(GO) test ./internal/docdb -run '^$$' -fuzz '^FuzzBundleDecodeWire$$' -fuzztime 10s -fuzzminimizetime 100ms
	$(GO) test ./internal/transport -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 10s -fuzzminimizetime 100ms
	$(GO) test ./internal/transport -run '^$$' -fuzz '^FuzzFrameRoundTrip$$' -fuzztime 10s -fuzzminimizetime 100ms
	$(GO) test ./internal/fabric -run '^$$' -fuzz '^FuzzDecodePush$$' -fuzztime 10s -fuzzminimizetime 100ms
	$(GO) test ./internal/relstore -run '^$$' -fuzz '^FuzzReplayWAL$$' -fuzztime 10s -fuzzminimizetime 100ms
	$(GO) test ./internal/relstore -run '^$$' -fuzz '^FuzzRestoreSnapshot$$' -fuzztime 10s -fuzzminimizetime 100ms
	$(GO) test ./internal/blob -run '^$$' -fuzz '^FuzzRestore$$' -fuzztime 10s -fuzzminimizetime 100ms

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# One iteration of every benchmark in every package, so benchmark code
# cannot rot without CI noticing.
bench-check:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The lecture-day benchmark as a regression gate: three runs of all
# four workloads, then the medians against the committed baseline; a
# gate metric past its BENCHMARK.json bound exits non-zero. About four
# minutes of wall clock and meaningful only on a quiet machine (the
# first step already exits non-zero when a metric's run-to-run spread
# exceeds its bound and so cannot be judged), so it is a manual
# (workflow_dispatch) CI job and not part of `make ci`.
bench-gate:
	$(GO) run ./bench -repeat 3
	$(GO) run ./bench -compare bench/baseline.json bench/out/repeat.json

# Observability-overhead gate: the broadcast lecture cycle with
# observability on must stay within 5% of the same cycle with every
# observer disabled, and likewise with the event journal on versus
# disabled. CI runs the pairs at OBS_BENCHTIME=1x as a compile-and-run
# check (one socket-bound iteration is too noisy to judge 5%); raise
# OBS_BENCHTIME (e.g. 50x) locally or in a nightly job to measure the
# ratio for real.
OBS_BENCHTIME ?= 1x
obs-overhead:
	$(GO) test -run '^$$' -bench '^BenchmarkFabricBroadcast(Obs|Events)' -benchtime $(OBS_BENCHTIME) .

# A ~10-second compressed load run against a self-hosted 3-station
# fabric: webdocload replays the shipped ci-smoke profile (a Go value in
# internal/loadgen) and exits non-zero if any SLO fails. The report lands in
# BENCH_load_ci-smoke.json (uploaded as a CI artifact).
load-smoke:
	$(GO) run ./cmd/webdocload -profile ci-smoke

ci: build vet fmt-check lint test race race-fabric fuzz-smoke bench-check obs-overhead load-smoke
