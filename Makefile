GO ?= go

.PHONY: all build vet test race fuzz verify exhibits bench loc

all: build vet test

build:
	$(GO) build ./...

# benchmark/ is a module of its own that pins option, config and runner
# names of this one; vetting it here makes a rename that breaks the
# harness fail locally. (vet, not build: a build in that directory
# overwrites the committed benchmark/benchmark binary.)
vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...
	@unformatted=$$(git ls-files '*.go' | xargs gofmt -l); \
		if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

# Race-detector pass over the concurrency-sensitive packages, including
# the DHT stress test (concurrent Get/Put/Mutate/Flush across ranks).
race:
	$(GO) test -race ./internal/...

# A 3-second smoke of every Fuzz* function in the tree, found by grep so
# a new one is picked up without touching this file (go test -fuzz takes
# one package and one target per invocation).
fuzz:
	@grep -rl --include='*_test.go' '^func Fuzz' cmd internal | while read f; do \
		for fn in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\).*/\1/p' $$f); do \
			echo "fuzz $$fn ./$$(dirname $$f)/"; \
			$(GO) test -fuzz "^$$fn\$$" -fuzztime 3s -run '^$$' ./$$(dirname $$f)/ || exit 1; \
		done; \
	done

# One-stop correctness gate: build, vet, the fuzz smoke, the short test
# suite — which includes every group of the scenario matrix at tiny scale
# (DESIGN.md "Scenario matrix"; TestMatrixAllGreen is not -short-gated, so
# no separate `go test -run Matrix ./internal/expt/` step is needed; the
# paper-exhibit sweeps and the service exhibit do skip under -short) — a
# targeted race-detector pass over the schedule-perturbation surface (the
# perturbation layer and the event loop, DHT flushes and owner sections,
# stage 1's inbox drain — ordered by a barrier, not a lock — the goroutine
# phases around the claim/link traversal's event loop, gap closing's
# three phases over the shared scratch pool and ladder steps, the
# perturbation-seed assembly sweep, the scheduler's fake-runner suite),
# and the real-pipeline batteries that are too slow for -short (multi-k
# determinism; cross-job isolation, preemption and the real-runner service
# report's determinism), and every example program, built into a temp dir
# and run from there (quickstart writes a FASTA into its working
# directory). `make test` / `make race` remain the exhaustive versions.
verify: build vet fuzz
	$(GO) test -short ./...
	@d=$$(mktemp -d) && $(GO) build -o $$d/ ./examples/... && (cd $$d && for x in *; do echo "example $$x"; ./$$x || exit 1; done); s=$$?; rm -rf $$d; exit $$s
	$(GO) test -short -race ./internal/xrt/ ./internal/dht/ ./internal/kanalysis/ ./internal/sched/
	$(GO) test -short -race -run 'Contention|SplitChain' ./internal/contig/
	$(GO) test -short -race -run 'LadderScarcity|ClosuresRankInvariant|ChunkedScan|ScratchPool' ./internal/gapclose/
	$(GO) test -short -race -run 'Perturb' ./internal/verify/
	$(GO) test -short -race -run 'Conservation|Metamorphic' ./internal/metrics/
	$(GO) test -run 'MultiK' ./internal/pipeline/
	$(GO) test -run 'CrossJobIsolation|PreemptionResumes|RealServiceReportDeterminism' ./internal/sched/

# The size ROADMAP tracks: non-blank lines of non-test Go outside
# benchmark/ (tracked files plus new ones not yet added). DIR=internal/ckpt
# counts one directory instead of the whole tree.
DIR = .
loc:
	@git ls-files --cached --others --exclude-standard '$(DIR)/*.go' | grep -v -e '^benchmark/' -e '_test\.go$$' | \
		xargs cat | grep -cv '^[[:space:]]*$$'

# The one committed copy of the paper exhibits' numbers (EXPERIMENTS.md):
# `benchsuite -all` at SmallScale into the golden, then the shape tests
# rewrite their tiny-scale goldens and the doc test re-splices
# EXPERIMENTS.md's measured blocks from it. Every digit is a function of
# the input, so on an unchanged tree this leaves `git diff` empty (CI's
# bench job checks exactly that); ~1 min on 2 cores.
EXHIBIT_TESTS = Fig6|Tables12|SweepScales|Table3|Compare|Ablation|MetaSweepGate|ExperimentsDoc
exhibits:
	$(GO) run ./cmd/benchsuite -all > internal/expt/testdata/exhibits_small.txt
	$(GO) test -count=1 -run '$(EXHIBIT_TESTS)' ./internal/expt/ -update

# The DHT microbenchmarks comparing striped-mutex and frozen Get paths,
# the stage-1 hot loops one layer at a time (flat-shard probe and insert,
# rolling canonical scan, minimizer scan, super-k-mer encode and the
# record cursor's canonical decode, the Misra–Gries fold), the scaffolding-half hot loops (seed-index
# build, one read's alignment, one walk-heavy gap closed at all three k;
# allocations per op beside the time; the mini-graph's build, walk and
# partial-merge cost per unit, which calibrates gap closing's charges), the
# per-run fixed costs (the sketch pass at 32 and 96 ranks, a Freeze/Thaw
# pair at 96 ranks, the k-mer stage encoder and the scaffold stage codec
# both ways; bytes per op are the point), all of stage 1 (a whole kanalysis.Run, human-like at 32 ranks,
# wheat-like at 96 and a metagenome at k = 55, per k-mer window), and then the committed harness:
# benchmark/run.sh measures wall, virtual and memory, end to end and per layer, on four workloads (BENCHMARK.json; compare two runs with
# `bash benchmark/run.sh -compare A.json B.json`).
bench:
	$(GO) test -run xxx -bench 'BenchmarkDHTGet|BenchmarkFreeze' ./internal/dht/
	$(GO) test -run xxx -bench 'BenchmarkShardUpsert|BenchmarkShardGet' ./internal/flat/
	$(GO) test -run xxx -bench 'BenchmarkForEachCanonical|BenchmarkMinimizerScan|BenchmarkSuperKmerEncode|BenchmarkDecodeCanonical' ./internal/kmer/
	$(GO) test -run xxx -bench BenchmarkMergeSummaries ./internal/mg/
	$(GO) test -run xxx -bench 'BenchmarkBuildIndex|BenchmarkAlignRead' ./internal/aligner/
	$(GO) test -run xxx -bench 'BenchmarkCloseGap|BenchmarkMiniGraphUnits' ./internal/gapclose/
	$(GO) test -run xxx -bench 'BenchmarkSketchPass|BenchmarkStage1' ./internal/kanalysis/
	$(GO) test -run xxx -bench 'BenchmarkEncodeKmerStage|BenchmarkEncodeScaffoldStage|BenchmarkDecodeScaffoldStage' ./internal/ckpt/
	bash benchmark/run.sh -out bench.json
