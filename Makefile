GO ?= go

.PHONY: all build test vet fmt-check lint lint-fixtures race stress fuzz-smoke obs-smoke check bench bench-check bench-smoke loc clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt-check fails, listing the offenders, when any Go file is not
# gofmt-formatted. gofmt walks the whole tree from the root, so the
# benchmark/ module is checked along with the root module.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l found unformatted files:"; echo "$$out"; exit 1; fi

# jsqlint (cmd/jsqlint, internal/lint) machine-checks the executor's
# invariants that vet and the type system cannot: kernel-output aliasing,
# operator Close lifecycle, span lifecycle, selection-vector access
# discipline, locks held across NextBatch, discarded load-bearing errors,
# cancellation polling in absorbing loops, memory-governance charging,
# TypedCol view escapes, spill-run lifecycles, raw null-bitmap access, and
# the confinement of package unsafe to internal/variant/layout.go.
# `jsqlint -list` names the analyzers; see DESIGN.md "Invariants".
lint:
	$(GO) run ./cmd/jsqlint -stats ./...

# lint-fixtures runs only the analyzers' golden-fixture harness — the fast
# inner loop when developing an analyzer.
lint-fixtures:
	$(GO) test -run TestFixtures ./internal/lint/

# The observability substrate (internal/obsv) is shared by concurrent server
# queries; the race detector run is the gate that keeps it race-clean. -race
# also turns on the compiler's checkptr instrumentation, so the same run is
# the pointer-arithmetic gate for the one file that imports unsafe
# (internal/variant/layout.go): every unsafe.String/unsafe.Slice it performs
# under the whole test suite is checked against the allocation it points at.
race:
	$(GO) test -race ./...

# The stress tests hammer every worker pool of internal/engine — the
# exchanges, whose stages include hash-join probes and a left build's match
# pass, and the fanned-out hash aggregate's phase 1 (the join build and the
# sort stay sequential: workers only read a built table) — with
# LIMIT-truncated, cancelled and abandoned queries, plus the join's early
# Close, the MVCC and plan-cache races; under
# the race detector, five times over, they are the gate for the
# worker-shutdown paths. The output is
# kept in stress.log, which CI uploads when the run fails.
stress: SHELL := /bin/bash
stress:
	set -o pipefail; $(GO) test -race -run 'Stress' -count 5 ./internal/engine/ 2>&1 | tee stress.log

# fuzz-smoke gives each fuzzer a short budget so CI explores beyond the
# checked-in seed corpus: the differential plan fuzzer, the SQL parser
# fuzzer (no panic or hang on any input; what parses renders back stably),
# the value decoder + freezer fuzzer (no panic, hang or unbounded
# allocation decoding any bytes; a frozen value is exactly the decoded one,
# with every pointer inside its block), the JSON parser fuzzer (no panic
# or hang; what parses renders through JSON() back to an equal value; data
# after the first value is rejected), the JSON string escaper fuzzer
# (the bytes encoding/json writes for any string; every /query body and
# query-log line escapes its strings through it), and the JSONiq frontend
# fuzzer (no panic or hang lexing, parsing and inlining any text; for what
# parses, Rewrite leaves its input unchanged and is idempotent).
# The seeds themselves already run as unit tests under `make test`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzPlanDiff' -fuzztime 30s ./internal/engine/
	$(GO) test -run '^$$' -fuzz 'FuzzSQLParse' -fuzztime 30s ./internal/sqlparse/
	$(GO) test -run '^$$' -fuzz 'FuzzFreeze' -fuzztime 30s ./internal/variant/
	$(GO) test -run '^$$' -fuzz 'FuzzParseJSON' -fuzztime 30s ./internal/variant/
	$(GO) test -run '^$$' -fuzz 'FuzzAppendJSONString' -fuzztime 30s ./internal/variant/
	$(GO) test -run '^$$' -fuzz 'FuzzJSONiqParse' -fuzztime 30s ./internal/jsoniq/

# obs-smoke boots a real jsqd with slow-query capture and a qlog sink, runs
# one query four times over HTTP around an append, and asserts the
# observability contract end to end: parseable query-log JSON records whose
# plan- and result-cache hit flags follow the expected pattern, a populated
# /debug/slow, and a live /metrics exposition. It also runs jsq: a failing
# one-shot query writes one qlog record with status error, and -backend
# interp prints what the translated back-end prints.
obs-smoke:
	$(GO) run ./scripts/obssmoke

check: build vet fmt-check lint test race obs-smoke bench-check

# bench runs the whole benchmark set (BENCHMARK.json: five workloads, three
# untraced runs and one traced run each) and writes results.json and
# trace.json; compare two commits' files with `bash benchmark/run.sh -compare`.
bench:
	bash benchmark/run.sh --out results.json --trace-out trace.json

# The benchmark harness is a Go module of its own (benchmark/go.mod), so the
# root module's `go test ./...` does not reach its tests: unit tests plus a
# toy-size pass of all five workloads against the current engine.
bench-check:
	cd benchmark && $(GO) test ./...

# bench-smoke compiles and single-iterates every Go benchmark so CI catches
# benchmark bit-rot without paying for real measurement runs.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# loc prints the non-test Go line count of every package under internal/,
# their total, then the totals of cmd/ and of the root package: the
# before/after numbers a simplification reports.
loc:
	@$(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./internal/... ./cmd/... . | \
		awk '{ n = 0; for (i = 2; i <= NF; i++) { while ((getline l < $$i) > 0) n++; close($$i) } \
			if ($$1 ~ /^jsonpark\/internal\//) { printf "%7d  %s\n", n, $$1; t += n } \
			else if ($$1 ~ /^jsonpark\/cmd\//) c += n; else r += n } \
			END { printf "%7d  total\n%7d  cmd/\n%7d  root package\n", t, c, r }'

clean:
	rm -rf results.json trace.json stress.log .bench_build
