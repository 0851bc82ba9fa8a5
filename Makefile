# Convenience targets; everything is plain `go` underneath.

.PHONY: build test vet fmt hogvet simvet certify lint perfbench examples experiments paper tenants tiering verify golden trace chaos fuzz clean

build:
	go build ./...

vet:
	go vet ./...

# Formatting gate: fails, listing the files, when gofmt would rewrite
# any tracked Go source.
fmt:
	@files=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$files" ]; then echo "gofmt -l:" >&2; echo "$$files" >&2; exit 1; fi

# Static hint-safety gate: hogc -vet exits non-zero on error-severity
# findings, over both the .hog sources in the tree and the built-in
# benchmarks.
hogvet: build
	@for f in examples/*.hog internal/compiler/testdata/*.hog; do \
		echo "hogc -vet $$f"; \
		go run ./cmd/hogc -vet -stats=false $$f >/dev/null || exit 1; \
	done
	@for b in `go run ./cmd/memhog list`; do \
		echo "hogc -vet -bench $$b"; \
		go run ./cmd/hogc -vet -stats=false -bench $$b >/dev/null || exit 1; \
	done

# Simulator-source invariants: the seven SV passes (determinism,
# map-order, emit pairing, nil-safe recorders, dropped errors,
# hot-path allocations, stale suppressions) over the whole module.
# Exits non-zero on any diagnostic.
simvet: build
	go run ./cmd/simvet ./...

# hogflow residency certificates: every benchmark's report (one
# section per DRAM:far ratio) must match its golden listing byte for
# byte, and two runs of the whole listing must be byte-identical
# (run-to-run determinism; certify runs no campaign, so -j plays no
# part).
certify: build
	@for b in `go run ./cmd/memhog list`; do \
		echo "memhog certify $$b"; \
		go run ./cmd/memhog certify $$b | diff -u internal/footprint/testdata/$$b.cert.golden - || exit 1; \
	done
	@go run ./cmd/memhog certify > /tmp/memhog-cert-a.txt
	@go run ./cmd/memhog certify > /tmp/memhog-cert-b.txt
	@cmp /tmp/memhog-cert-a.txt /tmp/memhog-cert-b.txt
	@echo "certify: six goldens match, two runs byte-identical"

lint: build fmt vet hogvet simvet certify

test: build vet
	go test ./...

# The repository's declared benchmark (BENCHMARK.json). perfbench is a
# module of its own, so the root `go test ./...` does not reach it:
# vet and test it here, then run one short pass of every workload.
# run.sh exits non-zero when any op's output misses its pinned digest.
perfbench:
	cd perfbench && go vet ./... && go test ./...
	@for w in campaign paging recorder; do \
		echo "perfbench --workload $$w"; \
		bash perfbench/run.sh --workload $$w --seconds 1 || exit 1; \
	done

examples:
	go run ./examples/quickstart
	go run ./examples/interactive
	go run ./examples/stencil
	go run ./examples/indirect
	go run ./examples/timeline

# Full Table-1 platform: 117 s serial (`-j 1`) and 66 s at `-j 0` on a
# 2-vCPU Xeon with go1.24. `-j 0` runs the campaign's independent
# simulations on one worker per CPU with byte-identical output.
experiments:
	go run ./cmd/memhog -j 0 all

# Paper-scale gate: one memhog run renders the full campaign and the
# claims check from a single pass of each campaign, and must reproduce
# the recorded experiments_full.txt and verify_full.txt, concatenated,
# byte for byte (it also exits non-zero on a failed claim). 51 s on a
# 2-vCPU Xeon with go1.24, against 94 s for separate all and verify
# runs.
paper: build
	@go run ./cmd/memhog -quiet -j 0 all verify > /tmp/memhog-paper.txt
	@cat experiments_full.txt verify_full.txt | cmp - /tmp/memhog-paper.txt
	@echo "paper: all and verify match experiments_full.txt and verify_full.txt"

# Multi-tenant smoke: the NUMA-sharded campaign on the scaled machine
# must produce byte-identical tables at any worker count.
tenants: build
	@go run ./cmd/memhog -quick -quiet -j 1 tenants > /tmp/memhog-tenants-j1.txt
	@go run ./cmd/memhog -quick -quiet -j 4 tenants > /tmp/memhog-tenants-j4.txt
	@cmp /tmp/memhog-tenants-j1.txt /tmp/memhog-tenants-j4.txt
	@cat /tmp/memhog-tenants-j1.txt
	@echo "tenants: deterministic at any -j"

# Memory-tiering smoke: the DRAM:far sweep on the scaled machine must
# produce byte-identical tables at any worker count (the command also
# fails if Buffered ever takes more hard faults than Original).
tiering: build
	@go run ./cmd/memhog -quick -quiet -j 1 tiering > /tmp/memhog-tiering-j1.txt
	@go run ./cmd/memhog -quick -quiet -j 4 tiering > /tmp/memhog-tiering-j4.txt
	@cmp /tmp/memhog-tiering-j1.txt /tmp/memhog-tiering-j4.txt
	@cat /tmp/memhog-tiering-j1.txt
	@echo "tiering: deterministic at any -j"

# Check the paper's claims at full scale; exits non-zero on failure.
verify:
	go run ./cmd/memhog verify

# Regenerate the compiler's golden listings after intentional analysis
# changes.
golden:
	go run ./cmd/gen-golden

# Flight-recorder smoke test: the Chrome trace export must be valid
# JSON, and it and the merged -log text must be byte-identical across
# two runs (run-to-run determinism; trace runs one simulation and reads
# no -j).
trace: build
	@go run ./cmd/memhog -quick -quiet trace matvec B > /tmp/memhog-trace-a.json
	@go run ./cmd/memhog -quick -quiet trace matvec B > /tmp/memhog-trace-b.json
	@cmp /tmp/memhog-trace-a.json /tmp/memhog-trace-b.json
	@python3 -m json.tool /tmp/memhog-trace-a.json > /dev/null
	@go run ./cmd/memhog -quick -quiet -log trace matvec B > /tmp/memhog-trace-a.log
	@go run ./cmd/memhog -quick -quiet -log trace matvec B > /tmp/memhog-trace-b.log
	@cmp /tmp/memhog-trace-a.log /tmp/memhog-trace-b.log
	@echo "trace: deterministic, valid JSON ($$(wc -c < /tmp/memhog-trace-a.json) bytes), log deterministic ($$(wc -l < /tmp/memhog-trace-a.log) lines)"

# Fault injection: the chaos property harness and the quick chaos
# matrix (benchmarks × versions × fault classes, continuously audited)
# under the race detector, plus byte-identical replay checks of one
# default-plan run, one explicit multi-class plan, and the far class.
# Every chaos run is built by experiments.ChaosConfig, so the default
# plan (`all`) and the far class both arm far-tier sites and run on a
# DRAM:far 3:1 split of the machine.
chaos: build
	go test -race -run 'TestChaos|TestMetamorphic' ./internal/chaostest/ ./internal/experiments/
	@go run ./cmd/memhog -quick -quiet -json chaos matvec B -seed 7 > /tmp/memhog-chaos-a.json
	@go run ./cmd/memhog -quick -quiet -json chaos matvec B -seed 7 > /tmp/memhog-chaos-b.json
	@cmp /tmp/memhog-chaos-a.json /tmp/memhog-chaos-b.json
	@go run ./cmd/memhog -quick -quiet -json chaos mgrid R -seed 42 -faults "releaser-stall:p=0.1,mag=5ms;disk-error:p=0.02" > /tmp/memhog-chaos-c.json
	@go run ./cmd/memhog -quick -quiet -json chaos mgrid R -seed 42 -faults "releaser-stall:p=0.1,mag=5ms;disk-error:p=0.02" > /tmp/memhog-chaos-d.json
	@cmp /tmp/memhog-chaos-c.json /tmp/memhog-chaos-d.json
	@go run ./cmd/memhog -quick -quiet -json chaos fftpde B -seed 3 -faults far > /tmp/memhog-chaos-e.json
	@go run ./cmd/memhog -quick -quiet -json chaos fftpde B -seed 3 -faults far > /tmp/memhog-chaos-f.json
	@cmp /tmp/memhog-chaos-e.json /tmp/memhog-chaos-f.json
	@echo "chaos: replay deterministic"

# Short sessions of every fuzz target: the language front end, the
# affine evaluator, the loop executor against its element-wise oracle,
# the chaos plan codec and the flight-recorder exporter;
# `go test -fuzz=<name> -fuzztime=0` explores indefinitely.
fuzz:
	go test -fuzz=FuzzParse -fuzztime=10s ./internal/lang/
	go test -fuzz=FuzzVet -fuzztime=10s ./internal/lang/
	go test -fuzz=FuzzAffineEval -fuzztime=10s ./internal/lang/
	go test -fuzz=FuzzExecutorOracle -fuzztime=10s ./internal/compiler/
	go test -fuzz=FuzzChaosPlan -fuzztime=10s ./internal/chaos/
	go test -fuzz=FuzzExport -fuzztime=10s ./internal/events/

clean:
	go clean ./...
