GO ?= go

.PHONY: ci fmt vet build test race fuzz-smoke chaos-smoke mitigate-smoke vm-smoke dist-smoke examples-smoke bench-smoke bench bench-json bench-json-smoke bench-compare bench-record-check

# ci is the gate every change must pass.
ci: fmt vet build test race fuzz-smoke chaos-smoke mitigate-smoke vm-smoke dist-smoke examples-smoke bench-smoke bench-json-smoke bench-record-check

# fmt fails when any file is not gofmt-formatted, listing the offenders.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The harness fans jobs out over goroutines and the fault campaigns drive
# every simulator from that pool; run the whole tree under the race detector.
race:
	$(GO) test -race ./...

# Short fuzz runs of the pack/unpack, MAC roundtrip, cipher-kernel,
# page-table mapping and seal-on-first-read targets; go test accepts one
# -fuzz target per invocation.
fuzz-smoke:
	$(GO) test ./internal/pte -run=^$$ -fuzz=FuzzLineBytesRoundtrip -fuzztime=5s
	$(GO) test ./internal/pte -run=^$$ -fuzz=FuzzEntryFieldOps -fuzztime=5s
	$(GO) test ./internal/core -run=^$$ -fuzz=FuzzMACEmbedVerifyStrip -fuzztime=5s
	$(GO) test ./internal/mitigate -run=^$$ -fuzz=FuzzMisraGries -fuzztime=5s
	$(GO) test ./internal/harness -run=^$$ -fuzz=FuzzJournalLoad -fuzztime=5s
	$(GO) test ./internal/harness -run=^$$ -fuzz=FuzzJournalCorruption -fuzztime=5s
	$(GO) test ./internal/virt -run=^$$ -fuzz=FuzzNestedWalk -fuzztime=5s
	$(GO) test ./internal/mac -run=^$$ -fuzz=FuzzComputeDelta -fuzztime=5s
	$(GO) test ./internal/qarma -run=^$$ -fuzz=FuzzEncryptMatchesReference -fuzztime=5s
	$(GO) test ./internal/ostable -run=^$$ -fuzz=FuzzMapRange -fuzztime=5s
	$(GO) test ./internal/dist -run=^$$ -fuzz=FuzzDistFrame -fuzztime=5s
	$(GO) test ./internal/memctrl -run=^$$ -fuzz=FuzzSealOnRead -fuzztime=5s

# chaos-smoke: one soak round over the full fault-point catalog — real
# process kills, torn journal writes, fsync/disk faults, worker panics, hung
# jobs — plus a deliberate journal corruption per cycle; fails unless every
# resumed report is byte-identical to the uninterrupted same-seed run.
chaos-smoke:
	$(GO) run ./cmd/ptguard soak -rounds 1 -lines 20 -jobs 6 -timeout 5s -quiet

# dist-smoke: a micro-campaign sharded over two `ptguard worker`
# subprocesses of one race-built binary — spawn, CRC-framed handshake, job
# streaming, and shutdown all exercised end to end under the race detector.
dist-smoke:
	@dir=$$(mktemp -d) && \
	$(GO) build -race -o $$dir/ptguard ./cmd/ptguard && \
	$$dir/ptguard sweep -sections correction -correction-lines 10 \
		-backend proc -dist-workers 2 -quiet > /dev/null; \
	rc=$$?; rm -rf $$dir; exit $$rc

# A tiny head-to-head matrix: the mitigation registry, attack patterns, and
# campaign plumbing all exercised end to end in a couple of seconds.
mitigate-smoke:
	$(GO) run ./cmd/ptguard mitigate -mitigations none,trr,oracle \
		-patterns classic,half-double -trials 1 -acts 4096 -quiet

# A tiny inter-VM campaign on the nested-paging substrate: 4 tenant VMs,
# both attack targets, the unprotected and fully protected placements.
vm-smoke:
	$(GO) run ./cmd/ptguard vm -tenants 4 -placements none,both \
		-targets guest,stage2 -trials 1 -pages 8 -acts 4096 -quiet

# examples-smoke runs every program under examples/ with its default
# arguments and fails if any exits non-zero.
examples-smoke:
	@for d in examples/*/; do \
		echo "go run ./$$d"; \
		$(GO) run ./$$d > /dev/null || exit 1; \
	done

# One iteration of every benchmark: a build-and-run check that the bench
# harnesses (including BenchmarkObsDisabledOverhead, the <2% disabled-path
# observability budget) stay green without paying for full timings.
bench-smoke:
	$(GO) test -run=^$$ -bench=. -benchtime=1x ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$

# bench-json runs the root benchmark suite at full fidelity and appends the
# next BENCH_<n>.json baseline, so the perf trajectory is tracked
# run-over-run (compare two baselines with `ptguard bench -compare`).
bench-json:
	$(GO) test -bench=. -benchmem -run=^$$ . | $(GO) run ./cmd/ptguard bench -out .

# bench-compare diffs the two newest committed baselines and fails when any
# shared benchmark's ns/op, B/op or allocs/op rose, or a */sec throughput
# fell, by more than 10% (tune with `ptguard bench -threshold`).
bench-compare:
	$(GO) run ./cmd/ptguard bench -compare $$(ls BENCH_*.json | sort -t_ -k2 -n | tail -2 | paste -sd, -)

# bench-json-smoke proves the pipeline stays parseable without paying for
# full timings: 1-iteration run, baseline written to a throwaway dir.
bench-json-smoke:
	$(GO) test -bench=. -benchmem -benchtime=1x -run=^$$ . | $(GO) run ./cmd/ptguard bench -out $$(mktemp -d)

# bench-record-check vets and tests the benchmark of record (benchmark/, its
# own module), which compiles against internal/dist and internal/harness but
# is outside ./... here.
bench-record-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
