# Developer entry points. CI (.github/workflows/ci.yml) calls the race,
# lint, lint-selftest, bench-smoke, examples and contest-stress targets by
# name.

GO ?= go

.PHONY: all build test race lint lint-selftest fmt vet bench-smoke bench-all bench-compare sim examples contest contest-stress loc

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The whole suite under the race detector, then the concurrent paths again:
#
# Write-path stress (netx fan-out, transfer workers, unlocked verification).
# DistributeBlock runs one goroutine per member, bootstrap / resync /
# retire / rejoin run transfer workers, and the server verifies chunks
# outside its store lock, forking the shared group check inside each
# handler: ten rounds on one and on two Ps, so both the interleaved and the
# truly parallel schedules are raced. The sim-vs-TCP differential rides
# along, and so does the one read path (netx.Gather: a plan's batches run
# side by side): the planner's tests, RetrieveBlock against the sweep it
# replaced with dead, slow, corrupting and shortening members, its
# round-trip and byte budget, the stale-map retry, the bare first pass with
# its proven re-read, the server's store-to-frame encoder (its allocation
# guard, corrupt-wire), the proof queries the server answers by scanning
# its stored chunks in place under its lock, and the unlocked owner's check
# refusing a chunk cut one transaction short.
#
# Fork-join (par.Each, certificate checks, workload signing, seeded run at
# 1 vs 4 cores, shares checked in flight). core.Group.Verify and
# consensus.VerifyCertificate fork their signature checks through
# internal/par, the workload generator forks its signing and key
# derivations, and a leader starts each remote member's share check
# (core.AdoptChunk on the share's stored bytes) when it sends the share
# (collected on delivery): the helper, the balanced k-means cycle exit, the
# certificate differentials (one-chunk votes and votes over shares), the
# generator's batched-vs-sequential stream test, the GOMAXPROCS-1-vs-4
# byte-identity run, every core test that delivers shares tampered with,
# corrupted, dropped, duplicated or cut short (the share protocol tests and
# the in-flight verdict oracle, the Byzantine and tampering leaders, the
# corrupter, exactly-once under faults, the owners refusing shares cut one
# transaction short), the receiver check's fuzz seeds and the archived
# shares kept through joins and a prune are raced five times each on one,
# two and four Ps.
#
# Gateway caches and batcher (verified-only chunk cache, proofs from the
# cached tree, coalescing, netx.Gather through the batcher). A block-cache
# entry (encoding + Merkle tree) is read by every connection handler at once
# and the chunk cache is filled only after reassembly verified: the
# bad-chunk, mis-cut-copies, local-proof and coalescing tests five times on
# one and on two Ps, with the reads that drive netx.Gather through the
# batcher (its callers make round trips themselves): dead, withholding,
# corrupting, shortening and truncating members, the sound read that is sent
# no proof, the served block frame, hot and cold, and the cold read's
# allocation count.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -cpu 1,2 ./internal/netx -run 'Distribute|Bootstrap|Resync|Retire|Rejoin|ClusterTracing|Concurrent|SimAndTCP|CorruptingMember|Plan|Gather|Retrieve|MapAdded|SoundRead|ServedBatch|CorruptRate|TxProof|CutShort'
	$(GO) test -race -count=5 -cpu 1,2,4 ./internal/par ./internal/cluster ./internal/consensus ./internal/workload
	$(GO) test -race -count=5 -cpu 1,2,4 ./internal/core -run 'TestSeededRunIdenticalAcrossGOMAXPROCS|TestShare|Byzantine|Tampering|ChaosCorrupter|ExactlyOnceUnderFaults|CutShort|AdoptChunk|PruneKeepsArchivedShares'
	$(GO) test -race -count=5 -cpu 1,2 ./internal/gateway -run 'BadChunk|MisCut|LocalProof|Coalesce|CorruptingMember|ShorteningMember|DoesNotDecode|Gather|Batcher|SoundRead|ServedBlock|ColdRead'

# The repo's own invariant suite (`icilint -list` prints it; DESIGN.md
# "Static analysis" has the annotation grammar and the per-analyzer ledger).
# Exit 1 means findings; fix or annotate with
# //icilint:allow analyzer(reason). An annotation that no longer matches a
# diagnostic is itself a finding.
lint:
	$(GO) run ./cmd/icilint ./...

# Prove the gate still bites. The determinism fixture (core) is known-bad,
# so icilint must exit non-zero on it; and for every analyzer of the suite,
# one seeded edit to a real package of a copy of this module must be
# reported under that analyzer's name (the seeds table in
# cmd/icilint/main_test.go) — an analyzer that fences nothing here fails.
lint-selftest:
	@if $(GO) run ./cmd/icilint ./internal/analysis/analyzers/testdata/src/core; then \
		echo "icilint passed known-bad fixture core: the gate is broken" >&2; \
		exit 1; \
	fi; \
	echo "lint-selftest ok: fixture still flagged"
	$(GO) test -count=1 -run TestSeededEditsAreReported ./cmd/icilint

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

# The repository's one benchmark (bench/README.md, BENCHMARK.json) is a Go
# module of its own, so `make test` does not reach it. bench-smoke runs its
# tests and the same-seed determinism check at smoke scale, then every
# testing.B of the main module for one iteration so they keep compiling and
# running; CI's bench-module job runs this target.
bench-smoke:
	$(GO) test -C bench ./...
	bash bench/run.sh -selfcheck -quick
	$(GO) test -run=NONE -bench . -benchtime 1x ./...

# Every workload, untraced and traced, every metric by name:
#   make bench-all [OUT=after.json] [RUNS=3]
bench-all:
	bash bench/run.sh -all $(if $(RUNS),-runs $(RUNS)) $(if $(OUT),-out $(OUT))

# Judge a change against its parent from two bench-all files:
#   make bench-compare A=before.json B=after.json
bench-compare:
	bash bench/run.sh -compare $(A) $(B)

sim:
	$(GO) run ./cmd/icisim -nodes 32 -clusters 4 -blocks 2 -trace summary

# Run every program under examples/; each exits non-zero when its walkthrough
# fails, so the public API they use is exercised, not just compiled.
examples:
	@for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d || exit 1; done

# Run every shipped integration scenario: real icinet -serve clusters over
# loopback TCP, driven by the contest harness (DESIGN.md "Integration
# harness"). CI's contest-smoke job runs five of them plus the negative
# self-test.
contest:
	$(GO) run ./cmd/icicontest scenarios/bootstrap.cont \
		scenarios/crash-restart.cont scenarios/membership.cont \
		scenarios/byzantine.cont scenarios/gateway.cont \
		scenarios/churn.cont

# The contest suite twenty times on one and on two Ps with every CPU kept
# busy by a shell loop — the loaded 1-2 CPU box tier-1 must stay green on
# (ROADMAP item 5). CI's contest-stress job runs the same recipe.
contest-stress:
	@pids=; for i in $$(seq $$(nproc)); do ( while :; do :; done ) & pids="$$pids $$!"; done; \
	$(GO) test -count=20 -cpu 1,2 -timeout 40m ./internal/contest; status=$$?; \
	kill $$pids; exit $$status

# Non-test, non-testdata Go lines of the main module (bench/ is a module of
# its own): the number a "net lines down" claim is made in. The second line
# is the linter's own share of it (internal/analysis + cmd/icilint). Counts
# tracked files, so `git add` first.
loc:
	@git ls-files '*.go' | grep -v '^bench/' | grep -v '_test.go$$' | grep -v '/testdata/' | xargs cat | wc -l
	@git ls-files 'internal/analysis/*.go' 'cmd/icilint/*.go' | grep -v '_test.go$$' | grep -v '/testdata/' | xargs cat | wc -l
