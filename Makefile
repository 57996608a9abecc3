# Mirrors the CI jobs (.github/workflows/ci.yml) so contributors run
# exactly what CI runs. `make check` is the full pre-push gate.

GO ?= go

.PHONY: all build test race smoke-tuned smoke-examples smoke-dist serve-smoke chaos-smoke bench lint reprolint reprolint-json loc vulncheck fmt check clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

# Full race coverage: every package under the race detector. (The
# goroutine and TCP engines, the parallel experiment harness, the HTTP job
# server and the operator lane fan-out are where races would live, but the
# whole tree is cheap enough to cover wholesale.)
race:
	$(GO) test -race ./...

# Tuned smoke: the cache-blocked + multi-goroutine kernels exercised end to
# end with the knobs on and GOMAXPROCS=4 — the combination a
# single-threaded box never covers incidentally. The gram-precompute=false
# run exercises the lean LeastSquares gradient form. The last line is the
# opposite corner: the shared-memory transport takes a lock per publish, and
# a descheduled holder is where that could bite, so its tests (64 workers on
# 2-component blocks among them) also run on ONE processor under -race.
smoke-tuned:
	GOMAXPROCS=4 $(GO) run ./cmd/asyncsolve -scenario lasso -n 320 -block-size 64 -intra-parallel 2 >/dev/null
	GOMAXPROCS=4 $(GO) run ./cmd/asyncsolve -scenario ridge -n 320 -intra-parallel 2 -gram-precompute=false >/dev/null
	GOMAXPROCS=4 $(GO) test -race -run 'Tuning|Knob|Tiled|Lean' . ./internal/operators/ ./internal/vec/ ./internal/server/
	GOMAXPROCS=1 $(GO) test -race -count=3 -run 'Shared' ./internal/runtime/

# Every example program must actually run, not just compile (CI smoke-runs
# them on every push).
smoke-examples:
	@for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run "./$$d" >/dev/null || exit 1; \
	done

# Both dist data planes solve a scenario end to end over real TCP (what
# the CI dist smoke step runs).
smoke-dist:
	$(GO) run ./cmd/asyncsolve -scenario lasso -engine dist -workers 4 -topology star >/dev/null
	$(GO) run ./cmd/asyncsolve -scenario lasso -engine dist -workers 4 -topology mesh >/dev/null
	$(GO) run ./cmd/asyncsolve -scenario routing -engine dist -workers 4 -topology mesh -delta 1e-9 >/dev/null

# Serve smoke: stand up the HTTP job server with admission capacity (queue
# depth + workers) deliberately below the offered closed-loop concurrency,
# drive it for 2s with a three-scenario mix, and require BOTH outcomes the
# design promises: every accepted job converged (load's exit code) and at
# least one job was 503-rejected, i.e. admission control actually engaged.
# Finishes with a SIGTERM drain, which must exit cleanly.
serve-smoke:
	$(GO) build -o asyncsolve ./cmd/asyncsolve
	@./asyncsolve serve -addr 127.0.0.1:18080 -queue 1 -concurrency 1 -quiet & \
	pid=$$!; \
	trap 'kill "$$pid" 2>/dev/null' EXIT; \
	sleep 1; \
	out=$$(./asyncsolve load -addr http://127.0.0.1:18080 -duration 2s \
		-concurrency 8 -scenarios lasso,ridge,routing); \
	status=$$?; \
	echo "$$out"; \
	if [ "$$status" -ne 0 ]; then \
		echo "serve-smoke: load failed (an accepted job did not converge)" >&2; \
		exit "$$status"; \
	fi; \
	echo "$$out" | grep -q 'rejected=[1-9]' || { \
		echo "serve-smoke: no 503 rejection observed (queue never filled)" >&2; \
		exit 1; }; \
	kill -TERM "$$pid"; \
	wait "$$pid"; \
	trap - EXIT; \
	echo "serve-smoke: ok"

# Chaos smoke: the elastic dist engine survives worker churn on both data
# planes. Each run solves with 8 workers under drop+reorder+delay faults
# while 2 workers are killed mid-solve and restarted; `asyncsolve chaos`
# exits non-zero unless the run converges and both rejoins are observed.
chaos-smoke:
	$(GO) build -o asyncsolve ./cmd/asyncsolve
	./asyncsolve chaos -scenario lasso -workers 8 -kills 2 -topology star \
		-drop 0.05 -reorder 0.05 -maxdelay 200us >/dev/null
	./asyncsolve chaos -scenario lasso -workers 8 -kills 2 -topology mesh \
		-drop 0.05 -reorder 0.05 -maxdelay 200us >/dev/null
	@echo "chaos-smoke: ok"

# Benchmark smoke: every benchmark compiles and runs once, with allocation
# reporting (what the CI benchmark job runs). Numbers of record come from
# `go run ./benchmark` (BENCHMARK.json).
bench:
	$(GO) test -run '^$$' -bench=. -benchtime=1x -benchmem ./...

lint: reprolint
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi
	$(GO) vet ./...

# The repo's own static-analysis suite (see internal/analysis and the
# "Static analysis" section of doc.go): hotpath, vecorder, knobdrift,
# plus the CFG-backed determinism and lockdiscipline. Any diagnostic fails
# the build. Runs
# through `go vet -vettool` so unchanged packages hit the vet action
# cache. cmd/... and examples/... are named explicitly to match CI.
reprolint:
	$(GO) build -o bin/reprolint ./cmd/reprolint
	$(GO) vet -vettool=bin/reprolint ./... ./cmd/... ./examples/...

# Size of the system, the number the ROADMAP watches go down: non-test Go
# lines over the tree (the stand-alone benchmark harness and analyzer
# fixtures excluded), and the subtotal of the concurrent engines — the
# worker loop, its transports and their engine adapters. Record both in
# CHANGES.md with every PR that moves them. The first is a ratchet: above
# LOC_CEILING the target (and CI's "Line count" step) fails. A PR that
# shrinks the tree lowers the ceiling to its own count; one that has to
# raise it says in CHANGES.md what the lines bought.
LOC_CEILING := 22456

loc:
	@n=$$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' -print0 | xargs -0 cat | wc -l); \
	echo "non-test go lines: $$n (ceiling $(LOC_CEILING))"; \
	printf 'internal/runtime + internal/dist + engine.go: '; \
	ls internal/runtime/*.go internal/dist/*.go | grep -v '_test\.go$$' | xargs cat engine.go | wc -l; \
	if [ "$$n" -gt $(LOC_CEILING) ]; then \
		echo "loc: $$n non-test lines is above the committed ceiling of $(LOC_CEILING)" >&2; \
		exit 1; \
	fi

# Machine-readable findings (what CI uploads as the reprolint-json
# artifact); exit status is always 0, the gating happens in `reprolint`.
reprolint-json:
	$(GO) build -o bin/reprolint ./cmd/reprolint
	./bin/reprolint -json ./... ./cmd/... ./examples/...

# Known-vulnerability scan, blocking against the reviewed allowlist
# (.govulncheck/allowlist.json) exactly as CI runs it. Skips gracefully
# when govulncheck or jq is not installed (CI always has both).
vulncheck:
	@command -v govulncheck >/dev/null 2>&1 || { echo "vulncheck: govulncheck not installed; skipping"; exit 0; }; \
	command -v jq >/dev/null 2>&1 || { echo "vulncheck: jq not installed; skipping"; exit 0; }; \
	govulncheck -json ./... > vuln.json; \
	found=$$(jq -r 'select(.finding != null) | select(.finding.trace[0].function != null) | .finding.osv' vuln.json | sort -u); \
	allowed=$$(jq -r '.allow[].id' .govulncheck/allowlist.json | sort -u); \
	blocked=""; \
	for id in $$found; do \
		printf '%s\n' "$$allowed" | grep -qxF "$$id" || blocked="$$blocked$$id\n"; \
	done; \
	blocked=$$(printf "$$blocked"); \
	rm -f vuln.json; \
	if [ -n "$$blocked" ]; then \
		echo "vulncheck: reachable vulnerabilities not in .govulncheck/allowlist.json:" >&2; \
		echo "$$blocked" >&2; \
		exit 1; \
	fi; \
	echo "vulncheck: clean"

fmt:
	gofmt -w .

check: lint vulncheck build test race smoke-tuned smoke-examples smoke-dist serve-smoke chaos-smoke bench

clean:
	rm -f asyncsolve
	rm -rf bin
