GO ?= go

.PHONY: build test short vet lint lint-fix-check tools staticcheck govulncheck race bench bench-smoke colo-smoke figures check ci smoke cover tournament tournament-smoke serve-smoke

# Pinned tool versions for CI (and for local installs that want to match
# CI exactly). Bump deliberately; staticcheck versions are coupled to Go
# releases.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

build:
	$(GO) build ./...

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

vet:
	$(GO) vet ./...

# The repo's own analyzer suite (cmd/simlint): determinism and
# correctness conventions machine-checked. Stdlib-only, so it always
# runs — no install step, no network.
lint:
	$(GO) run ./cmd/simlint ./...

# Convergence gate for the suggested-fix engine: on a clean tree,
# `simlint -fix` must rewrite nothing — a diff means a committed file
# carries an unapplied suggested fix (or an analyzer's fix does not
# converge). Any finding fails the first command; any rewrite fails the
# second.
lint-fix-check:
	$(GO) run ./cmd/simlint -fix ./...
	git diff --exit-code -- '*.go'

# Install the pinned external analyzers. CI runs this before
# staticcheck/govulncheck so the workflow and the Makefile cannot
# disagree about versions; run it locally to match CI exactly.
tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

# Static analysis beyond vet and simlint. staticcheck is not vendored;
# locally the target skips with a notice when the binary is absent, but
# in CI (CI env var set) a missing binary is a hard failure — the gate
# must not silently degrade.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif [ -n "$$CI" ]; then \
		echo "staticcheck required in CI but not installed (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))" >&2; \
		exit 1; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

# Known-vulnerability scan. Same contract as staticcheck: skip locally
# when absent, fail in CI.
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	elif [ -n "$$CI" ]; then \
		echo "govulncheck required in CI but not installed (go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION))" >&2; \
		exit 1; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION))"; \
	fi

# Race-detect the whole module; internal/sweep and the PDES coordinator
# (internal/sim) hold the only real concurrency, but the sweeps drag every simulator
# package through the detector too.
race: vet
	$(GO) test -race ./...

# The benchmark (bench/README.md, BENCHMARK.json): every workload, its
# host-time end-to-end metrics and its deterministic checksum. Compare two
# result files with `bash bench/run.sh -compare A B`.
bench:
	bash bench/run.sh

# What CI runs of the benchmark: the bench module's own tests (every
# workload against its smoke checksum, the traced per-layer runs, the
# slow-layer attribution test, simlint over bench/), then one scale-1
# Fig. 6/7 pass gated on its full cycle checksum.
bench-smoke:
	cd bench && $(GO) test -count=1 .
	bash bench/run.sh --workload paper-fig67 --seconds 1

figures:
	$(GO) run ./cmd/paperbench -fig all

# Regenerate the committed pipeline-tournament leaderboard: every
# registered planner crossed with the built-in prefetch governor and the
# learned bandit-pf governor, over the default workload matrix (bfs, ra,
# sssp) at 125% oversubscription. Deterministic — reruns produce an
# identical file, so a diff here is a behaviour change, not noise.
tournament:
	$(GO) run ./cmd/paperbench -tournament -scale 0.3 \
		-tournament-prefetchers default,bandit-pf -tournament-out BENCH_tournament.json

# Fast tournament slice for CI: two planners (static vs learned) over
# two workloads at a small scale, proving the harness end to end
# without the full matrix cost.
tournament-smoke:
	$(GO) run ./cmd/paperbench -tournament -scale 0.05 -workloads bfs,ra \
		-tournament-planners threshold,reuse-dist -tournament-out -

# End-to-end smoke of the simd sweep service (cmd/simd, DESIGN.md §14):
# an in-process server, a small bfs job submitted twice, hard assertions
# that the resubmission is a pure cache hit with a byte-identical
# payload and that the progress stream, cache stats and metrics
# snapshot all agree with what ran.
serve-smoke:
	$(GO) run ./cmd/simd -smoke

# End-to-end smoke of the multi-tenant co-location mode (DESIGN.md §15):
# three tenants over two GPUs and a pooled CXL tier, run sequentially
# and under the PDES coordinator — the outputs (including the result
# checksum) must be byte-identical.
colo-smoke:
	$(GO) run ./cmd/uvmsim -tenants bfs:0:1,ra:0:0,backprop:1:1 -gpus 2 \
		-cxl-pool-mb 32 -colo-epochs 3 -seed 7 -workers 1 >/tmp/uvmsim-colo-seq.txt
	$(GO) run ./cmd/uvmsim -tenants bfs:0:1,ra:0:0,backprop:1:1 -gpus 2 \
		-cxl-pool-mb 32 -colo-epochs 3 -seed 7 -workers 2 >/tmp/uvmsim-colo-par.txt
	cmp /tmp/uvmsim-colo-seq.txt /tmp/uvmsim-colo-par.txt
	grep -q 'checksum=' /tmp/uvmsim-colo-seq.txt

# Per-package coverage floor (70%) for the learned-policy and CXL
# surfaces (the mm pipeline, the learn primitives, the per-GPU counter
# file, the CXL controller) and the simlint framework plus its
# interprocedural analyzers.
cover:
	./scripts/cover.sh

check: vet lint test

# End-to-end smoke: a small sweep with the full observability surface on
# (metrics registry + periodic invariant checker), validating that the
# emitted metrics document is well-formed versioned JSON.
smoke:
	$(GO) run ./cmd/paperbench -fig 1 -scale 0.05 -workloads ra \
		-metrics-json /tmp/uvmsim-smoke-metrics.json -check-invariants 20000
	grep -q '"version": 1' /tmp/uvmsim-smoke-metrics.json
	grep -q '"runs"' /tmp/uvmsim-smoke-metrics.json

# What CI runs (.github/workflows/ci.yml): vet + simlint + the fix
# convergence gate + staticcheck + govulncheck, build, race-detected
# tests, the coverage floor, the observability smoke, the tournament
# smoke, the sweep-service smoke, the co-location smoke, then the
# benchmark smoke.
ci: vet lint lint-fix-check staticcheck govulncheck build race cover smoke tournament-smoke serve-smoke colo-smoke bench-smoke
