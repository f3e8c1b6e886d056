# Tier-1 verification gate: build everything, vet, lint the project
# invariants with sgvet, race-test the engine, transport, D-Galois
# baseline and serving layer (which runs every test the chaos,
# fleet-chaos and mutate-chaos targets select, so verify does not run
# those again), the sgserve process smoke tests, then the full suite
# (which includes the CLI trace smoke test and the sustained serving load
# test).
.PHONY: verify build vet lint test race smoke serve-smoke serve-dist-smoke chaos fleet-chaos mutate-chaos bench-build microbench-smoke examples-smoke fuzz-smoke inline-check size size-check pair

verify: build inline-check size-check bench-build microbench-smoke examples-smoke fuzz-smoke lint race serve-smoke serve-dist-smoke test

build:
	go build ./...
	go vet ./...

vet:
	go vet ./...

# The repository benchmark is a nested module (benchmark/go.mod) that
# `go build ./...` here does not reach, yet it calls internal/ APIs
# (mutate.Apply, Store.Commit, Diff, the trackers, graph.Symmetrize,
# graph.RandomWeights, ...). Compile and vet it so a signature change
# breaks the gate, not the next benchmark run. (-o /dev/null: the module
# is one main package, which a bare `go build` would drop into benchmark/.)
bench-build:
	cd benchmark && go vet ./... && go build -o /dev/null ./...

# The single-bit accessors of bitset.Bitmap run once per scanned edge and
# per visited destination of every dependency kernel, and they are cheap
# only inlined: a fmt call in their range check once pushed them over the
# compiler's budget and cost the dense pass 12 % as real CALLs. Hold each
# to "can inline", so that creeping back breaks the gate, not a profile.
# The same holds for xrand's absorb step and a key's Uniform01, which
# every hoisted draw loop (Sample's r_v, K-means' re-centring, Perm) runs
# once per vertex.
inline-check:
	@out=$$(go build -gcflags=-m ./internal/bitset 2>&1); \
	for f in Get Set Clear GetAtomic SetAtomic TestAndSetAtomic; do \
		echo "$$out" | grep -q "can inline (\*Bitmap)\.$$f$$" || { echo "inline-check: bitset.(*Bitmap).$$f is not inlinable"; exit 1; }; \
	done; echo "inline-check: the six single-bit accessors inline"
	@out=$$(go build -gcflags=-m ./internal/xrand ./internal/seq 2>&1); \
	for f in step Prefix.Uniform01 SampleDraw.Threshold; do \
		echo "$$out" | grep -q "can inline $$f$$" || { echo "inline-check: $$f is not inlinable"; exit 1; }; \
	done; echo "inline-check: the hash step and the keyed draws inline"

# The per-layer microbenchmarks (bitset kernels and the single-bit probe,
# bufpool, blocked CSR, FromEdges, RMAT at scale 16, graph.Patch,
# Symmetrize, mutate.Apply/Commit, PatchUndirected,
# BuildLayout and NewCluster at p=4 and p=16 with the bytes one build
# keeps after collection (live-B/op) beside B/op, Advance, one dense pass
# in both modes, CC/SSSP/PageRank with their update bytes) are only ever
# read by hand;
# one iteration each keeps them compiling and running, so a signature
# change or a panic breaks the gate.
microbench-smoke:
	go test -run '^$$' -bench . -benchtime 1x ./internal/graph ./internal/partition ./internal/mutate ./internal/core ./internal/algorithms ./internal/bitset ./internal/bufpool

# `go build ./...` compiles the examples but nothing runs them: run each
# one, so an example that panics or exits non-zero breaks the gate.
examples-smoke:
	@for e in examples/*/; do \
		echo "examples-smoke: $$e"; \
		go run ./$$e >/dev/null || { echo "examples-smoke: $$e failed"; exit 1; }; \
	done

# The two analysis front ends that must hold on any parseable Go, fuzzed
# for 15 s each: the instrumenter (output parses, is a fixed point, and
# leaves the checker no uncovered break — all of which rest on go/types
# tolerating whatever the parser accepts) and sgvet's CFG builder.
fuzz-smoke:
	go test -run '^$$' -fuzz FuzzInstrument -fuzztime 15s ./internal/analyzer
	go test -run '^$$' -fuzz FuzzCFGBuild -fuzztime 15s ./internal/sgvet

# Project-invariant lint: the full sgvet suite (six analyzers; the
# flow-sensitive engine backs bufown, ctxblock and commerr's drop
# rule) over the whole module, with the per-analyzer wall-time report.
# Exit 1 on findings — or on an unjustified //sgvet:ignore — fails the
# gate.
lint:
	go run ./cmd/sgvet -times ./...
	go run ./cmd/sgvet -audit ./...

# The numbers ROADMAP aim 2 asks every deletion PR to report before and
# after: non-test Go lines (the repo outside benchmark/, the engine's two
# hot packages, the algorithms, the serving layer, the paper harness, the
# D-Galois baseline, the §4 tool and the invariant lint suite with its
# loader),
# the exported surface of the engine, the harness, the baseline, the
# §4 analysis, the serving layer, the version chain, the graph store and
# the bitmaps (declarations, methods, fields and grouped
# constants, one per line of `go doc -all`), how many of the engine's,
# the transport's and the serving layer's exported top-level funcs and
# types no Go file outside the package names as pkg.Name (tests, cmd/,
# examples/, benchmark/ and sgvet's fixtures included), core.Options fields, the
# methods of the core.Engine interface, and the
# flags each command defines (internal/cliutil holds the groups several
# commands share).
FLAGDEF = \b(flag|fs|f)\.(Bool|Int|Int64|Uint|Uint64|Float64|String|Duration|Var|Func)(Var)?\(
size:
	@echo "non-test Go LOC, repo: $$(find . -name '*.go' ! -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' | xargs cat | wc -l)"
	@echo "non-test Go LOC, internal/core + internal/comm: $$(find internal/core internal/comm -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@echo "non-test Go LOC, internal/algorithms: $$(find internal/algorithms -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@echo "non-test Go LOC, internal/server: $$(find internal/server -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@echo "non-test Go LOC, internal/bench: $$(find internal/bench -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@echo "non-test Go LOC, internal/gluon: $$(find internal/gluon -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@echo "non-test Go LOC, internal/analyzer/... + cmd/sgc: $$(find internal/analyzer cmd/sgc -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@echo "non-test Go LOC, internal/sgvet + internal/loader + cmd/sgvet: $$(find internal/sgvet internal/loader cmd/sgvet -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@for p in core comm bench gluon analyzer analyzer/typed server mutate obs graph bitset; do \
		echo "exported identifiers, internal/$$p: $$(go doc -all ./internal/$$p | grep -cE '^(func|type) |^(const|var) [A-Z]|^	[A-Z]')"; \
	done
	@for p in core comm server; do \
		files=$$(find . -name '*.go' -not -path './.bench_build/*' | grep -v "^\./internal/$$p/[^/]*$$"); n=0; \
		for id in $$(go doc -short ./internal/$$p | sed -nE 's/^ *(func|type) ([A-Z][A-Za-z0-9_]*).*/\2/p'); do \
			grep -qE "\b$$p\.$$id\b" $$files || n=$$((n+1)); \
		done; \
		echo "exported funcs and types named by no other package, internal/$$p: $$n"; \
	done
	@echo "core.Options fields: $$(go doc ./internal/core Options | grep -c '^	[A-Z]')"
	@echo "methods, core.Engine: $$(go doc ./internal/core Engine | grep -cE '^	[A-Z][A-Za-z]*\(')"
	@for d in cmd/*/ internal/cliutil/; do \
		echo "flags, $$d: $$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | grep -cE '$(FLAGDEF)')"; \
	done

# The size budget as a gate: every line below is a `make size` line with
# the figure the tree had when it was last lowered. size-check
# recomputes them and fails on any that grew — a PR that needs more code,
# surface, options or flags raises the number here, in its own diff, and
# says why in CHANGES.md; one that shrinks a figure lowers it.
define SIZE_BUDGET
non-test Go LOC, repo: 22923
non-test Go LOC, internal/core + internal/comm: 4813
non-test Go LOC, internal/algorithms: 1193
non-test Go LOC, internal/server: 3894
non-test Go LOC, internal/bench: 1077
non-test Go LOC, internal/gluon: 586
non-test Go LOC, internal/sgvet + internal/loader + cmd/sgvet: 3034
exported identifiers, internal/core: 144
exported identifiers, internal/comm: 118
exported identifiers, internal/bench: 85
exported identifiers, internal/gluon: 7
exported identifiers, internal/server: 122
exported identifiers, internal/mutate: 64
exported identifiers, internal/obs: 61
exported identifiers, internal/graph: 70
exported identifiers, internal/bitset: 31
exported funcs and types named by no other package, internal/core: 3
exported funcs and types named by no other package, internal/comm: 0
exported funcs and types named by no other package, internal/server: 2
core.Options fields: 13
methods, core.Engine: 9
flags, cmd/sgbench/: 12
flags, cmd/sgc/: 5
flags, cmd/sggen/: 12
flags, cmd/sgserve/: 15
flags, cmd/sgvet/: 2
flags, cmd/sgworker/: 4
flags, cmd/symplegraph/: 15
flags, internal/cliutil/: 14
endef
export SIZE_BUDGET
size-check:
	@{ echo "$$SIZE_BUDGET"; echo "--"; $(MAKE) -s --no-print-directory size; } | awk -F': ' ' \
		$$0 == "--" { measuring = 1; next } \
		!measuring { budget[$$1] = $$2; next } \
		$$1 in budget { seen[$$1] = 1; if ($$2 + 0 > budget[$$1] + 0) { printf "size-check: %s is %d, over the budget of %d\n", $$1, $$2, budget[$$1]; bad = 1 } } \
		END { for (k in budget) if (!(k in seen)) { printf "size-check: nothing measured for \"%s\"\n", k; bad = 1 } \
			if (!bad) print "size-check: every figure within its budget"; exit bad }'

race:
	go test -race -count=1 ./internal/comm/... ./internal/core/... ./internal/algorithms/... ./internal/gluon/... ./internal/graph/... ./internal/mutate/... ./internal/partition/... ./internal/server/...

test:
	go test ./...

# Seeded fault-injection soak: crash/recovery sweeps over seeds, crash
# points and cluster sizes, under the race detector. Deterministic and
# fast (well under a minute). This and the two chaos targets below are
# subsets of race, kept for iteration.
chaos:
	go test -race -count=1 -run 'Chaos|Fault|Stall|Recovery|Checkpoint' ./internal/algorithms ./internal/core ./internal/comm ./internal/gluon

# Fleet self-healing soak: kill sgworker daemons mid-query, restart
# them on the same port, and assert the roster walks
# healthy→suspect→dead→rejoining→healthy, the pool regains full width
# without an sgserve restart, and degraded answers stay bit-identical.
fleet-chaos:
	go test -race -count=1 -run 'TestFleet' ./internal/server

# Dynamic-graph chaos gate: kill a worker while mutation batches
# commit, assert every epoch a worker serves is exactly the front-end's
# version (remote answers bit-identical to local at every queried
# epoch), new epochs reach survivors as verified deltas, and the
# rejoined worker returns the ring to full width on the newest epoch.
# A worker keeps each graph in one version chain: one delta per epoch
# however many variants or concurrent builds ask for it, the retention
# window and a pinned evicted epoch, the rejoin preload at the newest
# commit, and the chain's heap bound. Idle local engines outlive
# commits: an advanced cluster equals a fresh build field for field, and
# the pool advances instead of building.
mutate-chaos:
	go test -race -count=1 -run 'TestMutateChaos|TestQueryPinnedEpochSurvivesCommit|TestCommitAdvancesIdleEngines|TestRemoteVariantsArriveByDelta|TestConcurrentBuildsCommitDeltaOnce|TestWorkerCacheKeepsRetentionEpochs|TestRejoinPreloadsNewestEpochOnly|TestRejoinPreloadsLatestCommit|TestWorkerChainFootprint' ./internal/server
	go test -race -count=1 -run 'TestAdvanceMatchesFreshBuild' ./internal/core

# The -trace acceptance path on its own, for quick iteration.
smoke:
	go test -run TestCLITraceOutput -count=1 .

# The sgserve process acceptance path: random port, cached + uncached +
# over-capacity queries (200/200/429), SIGTERM drain.
serve-smoke:
	go test -run TestServeSmoke -count=1 .

# The distributed serving acceptance path: two sgworker processes plus
# sgserve -workers, one query per engine mode with remote results
# checked identical to the in-process provider.
serve-dist-smoke:
	go test -run TestServeDistSmoke -count=1 .

# Paired benchmark runs of PARENT against this checkout, alternating
# the two trees, with the statistics a timed claim reports (see
# scripts/pair.sh); PARENT is a git ref or a directory holding the
# parent's tree, e.g.
#   make pair PARENT=HEAD~1 WORKLOAD=serve_mutate SEED=29
#   make pair PARENT=../parent-clone WORKLOAD=dep_mem SEED=31
PAIRS ?= 10
pair:
	@test -n "$(PARENT)" -a -n "$(WORKLOAD)" -a -n "$(SEED)" || { echo "usage: make pair PARENT=<ref|dir> WORKLOAD=<workload> SEED=<seed> [PAIRS=10]"; exit 2; }
	bash scripts/pair.sh "$(PARENT)" "$(WORKLOAD)" "$(SEED)" "$(PAIRS)"
