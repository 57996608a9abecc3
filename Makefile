# Mirrors the CI jobs (.github/workflows/ci.yml) so contributors run
# exactly what CI runs. `make check` is the full pre-push gate.

GO ?= go

.PHONY: all build cross test race smoke-tuned smoke-examples smoke-dist serve-smoke chaos-smoke bench lint reprolint loc vulncheck fmt check clean

all: build

build:
	$(GO) build ./...

# internal/vec has amd64 assembly (dot4x4_amd64.s); every other
# architecture builds its Go spelling instead. Build the tree for arm64 and
# vet that package there, so the fallback always compiles (on amd64, go
# vet's asmdecl check covers the assembly's frame).
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/vec/

test:
	$(GO) test -shuffle=on ./...

# Full race coverage: every package under the race detector. (The
# goroutine and TCP engines, the parallel experiment harness, the HTTP job
# server and the operator lane fan-out are where races would live, but the
# whole tree is cheap enough to cover wholesale.) The second line races the
# star links Run keeps between solves on ONE processor, where a reader
# descheduled between the coordinator's bye and the link's retirement is the
# corner case that matters; so are a worker's small inbox under a slow
# worker's backpressure and the fault streams and leg queues senders hand on
# through their pools. The third races the in-process port's windows on ONE
# processor: three workers of which only neighbours exchange anything.
race:
	$(GO) test -race ./...
	GOMAXPROCS=1 $(GO) test -race -count=3 -run 'TestStarLinksKept|TestDistFloorAllocs|TestSmallInboxSlowWorker|TestSenderStreamReusedAcrossSenders|TestLegQueuesPooled' ./internal/dist
	GOMAXPROCS=1 $(GO) test -race -count=3 -run 'TestPortSendsOnlyToReaders|TestPortRunExchangesOnlyWindows' ./internal/runtime

# Tuned smoke: the multi-goroutine kernels exercised end to end with the
# knob on and GOMAXPROCS=4 — the combination a single-threaded box never
# covers incidentally. A block fans out only from operators.ParallelWork
# (2^19) multiply-adds, so the runs are sized to reach it: the lasso run's
# residual checks span its whole 768 x 768 Gram, and the ridge run's one sim
# worker evaluates all 384 rows of the lean LeastSquares gradient form
# against 1536 samples on every update. The multigrid run sets the knob on a
# sparse operator, offset folded in, through the message engine; no
# multigrid slab (15.6k stored entries at most) reaches the threshold, so
# the sparse lanes are pinned by the operator test's tall tridiagonal in the
# race line below. The fourth line runs the message engine's flexible
# partials end to end. The last two lines are the opposite corner: the in-process port takes a lock per publish in both
# box layouts, and a descheduled holder is where that could bite, so its
# tests and the engines' (64 workers on 2-component blocks among them) also
# run on ONE processor under -race. So do the dist sender's: with one
# processor, a lost wakeup between send's doorbell, the writer's re-armed
# timer and flush would hang.
smoke-tuned:
	GOMAXPROCS=4 $(GO) run ./cmd/asyncsolve -scenario lasso -n 768 -intra-parallel 2 >/dev/null
	GOMAXPROCS=4 $(GO) run ./cmd/asyncsolve -scenario ridge -n 384 -engine sim -workers 1 -intra-parallel 2 -gram-precompute=false >/dev/null
	GOMAXPROCS=4 $(GO) run ./cmd/asyncsolve -scenario multigrid -n 31 -engine message -workers 2 -intra-parallel 2 >/dev/null
	$(GO) run ./cmd/asyncsolve -scenario multigrid -n 31 -engine message -workers 2 -mode flexible >/dev/null
	GOMAXPROCS=4 $(GO) test -race -run 'Tuning|Knob|Lean' . ./internal/operators/ ./internal/vec/ ./internal/server/
	GOMAXPROCS=1 $(GO) test -race -count=3 -run 'Shared|Message|Port|Idle' ./internal/runtime/
	GOMAXPROCS=1 $(GO) test -race -count=3 -run 'Sender|Delay|Superseded|Teardown|Sheds|Owned' ./internal/dist/

# Every example program must actually run, not just compile (CI smoke-runs
# them on every push).
smoke-examples:
	@for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run "./$$d" >/dev/null || exit 1; \
	done

# Both dist data planes solve a scenario end to end over real TCP (what
# the CI dist smoke step runs). The second star run shares each worker's
# control link between its uplink writer and heartbeats and checkpoints:
# interleaved bytes would fail it as a malformed frame.
smoke-dist:
	$(GO) run ./cmd/asyncsolve -scenario lasso -engine dist -workers 4 -topology star >/dev/null
	$(GO) run ./cmd/asyncsolve -scenario lasso -engine dist -workers 4 -topology star -heartbeat 2ms -checkpoint 4ms -delta 1e-9 >/dev/null
	$(GO) run ./cmd/asyncsolve -scenario lasso -engine dist -workers 4 -topology mesh >/dev/null
	$(GO) run ./cmd/asyncsolve -scenario routing -engine dist -workers 4 -topology mesh -delta 1e-9 >/dev/null

# Serve smoke: stand up the HTTP job server with admission capacity (queue
# depth + workers) deliberately below the offered closed-loop concurrency,
# drive it for 2s with a three-scenario mix, and require BOTH outcomes the
# design promises: every accepted job converged (load's exit code) and at
# least one job was 503-rejected, i.e. admission control actually engaged.
# Then two identical open-loop runs (about 50 jobs each, so the second
# finds the first's instances still cached whatever the machine's speed)
# must make /healthz report instances_reused > 0: a job whose instance was
# just built does not rebuild it.
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
	for run in 1 2; do \
		./asyncsolve load -addr http://127.0.0.1:18080 -duration 1s -rate 50 \
			-seed 1000 -scenarios lasso,ridge,routing >/dev/null || exit 1; \
	done; \
	health=$$(curl -s http://127.0.0.1:18080/healthz); \
	echo "$$health"; \
	echo "$$health" | grep -q '"instances_reused":[1-9]' || { \
		echo "serve-smoke: a repeated job rebuilt its scenario instance" >&2; \
		exit 1; }; \
	kill -TERM "$$pid"; \
	wait "$$pid"; \
	trap - EXIT; \
	echo "serve-smoke: ok"

# Chaos smoke: the dist engine survives worker churn on both data planes
# and with both ways of detecting a lost worker (star: heartbeats and
# checkpoints; mesh: the severed link alone). Each run solves with 8
# workers under drop+reorder+delay faults while 2 workers are killed
# mid-solve and restarted; `asyncsolve chaos` exits non-zero unless the run
# converges and both rejoins are observed.
chaos-smoke:
	$(GO) build -o asyncsolve ./cmd/asyncsolve
	./asyncsolve chaos -scenario lasso -workers 8 -kills 2 -topology star -heartbeat 20ms \
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

# The repo's own static-analysis suite (see internal/analysis and README
# "Static analysis"): hotpath, vecorder, knobdrift and determinism. Any
# diagnostic fails the build. reprolint runs only as a
# `go vet -vettool`, so unchanged packages hit the vet action cache.
# cmd/... and examples/... are named explicitly to match CI.
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
LOC_CEILING := 21031

loc:
	@n=$$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' -print0 | xargs -0 cat | wc -l); \
	echo "non-test go lines: $$n (ceiling $(LOC_CEILING))"; \
	printf 'internal/runtime + internal/dist + engine.go: '; \
	ls internal/runtime/*.go internal/dist/*.go | grep -v '_test\.go$$' | xargs cat engine.go | wc -l; \
	if [ "$$n" -gt $(LOC_CEILING) ]; then \
		echo "loc: $$n non-test lines is above the committed ceiling of $(LOC_CEILING)" >&2; \
		exit 1; \
	fi

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

check: lint cross vulncheck build test race smoke-tuned smoke-examples smoke-dist serve-smoke chaos-smoke bench

clean:
	rm -f asyncsolve
	rm -rf bin
