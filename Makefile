# Convenience targets for the robust-qp workspace.

.PHONY: verify build test clippy lint lint-graph reproduce-check bench bench-compile bench-trace bench-lazy cache-smoke serve-smoke serve-remote-smoke trace-smoke reproduce chaos drill

# The full pre-merge gate: release build, quiet tests, zero clippy
# warnings, a clean rqp-lint pass (warnings denied), an acyclic lock
# graph, the fixed-seed chaos smoke sweep, the causal-trace smoke, the
# scripted resilience drills, and the paper's tables against their golden.
verify:
	cargo build --release && cargo test -q && $(MAKE) clippy && $(MAKE) lint && $(MAKE) lint-graph && $(MAKE) chaos && $(MAKE) trace-smoke && $(MAKE) drill && $(MAKE) reproduce-check

# Resilience drills (see README, "Resilience"): crash-recovery must
# restore every fingerprint from the disk tier with zero recompiles, and
# the seeded chaos storm must hold the deadline and breaker-consistency
# bounds over >= 100 sessions. Both exit non-zero on any violation.
drill:
	rm -rf target/drill-cache
	cargo run --release --bin rqp -- serve --drill crash-recover --cache-dir target/drill-cache
	cargo run --release --bin rqp -- serve --drill storm --chaos-seed 3 --sessions 120
	@echo "drill: ok"

# Fixed-seed fault-injection smoke sweep: every discovery algorithm must
# terminate with honest accounting under each fault class (see README,
# "Fault injection & chaos testing").
chaos:
	cargo run --release --bin rqp -- chaos --query 2D_Q91 --resolution 6 --seed 1 --schedules 2

# Workspace invariant linter (see README, "Static analysis"). Warnings
# (raii-span) are promoted to denials at the pre-merge gate.
lint:
	cargo run -q -p rqp-lint -- --deny-warnings

# Lock acquisition graph of the serving tier as GraphViz DOT. Fails
# (exit 1) if any acquisition-order cycle exists.
lint-graph:
	@mkdir -p target
	cargo run -q -p rqp-lint -- --lock-graph crates/serve --dot target/lock-graph.dot

build:
	cargo build --workspace --release

test:
	cargo test --workspace

# Library targets workspace-wide; every target (tests, benches, examples)
# of the crates whose test targets are clean so far.
clippy:
	cargo clippy --workspace -- -D warnings
	cargo clippy -p rqp-catalog -p rqp-qplan -p rqp-optimizer -p rqp-executor -p rqp-ess -p rqp-core -p rqp-workloads -p rqp-obs -p rqp-chaos -p rqp-lint -p rqp-serve --all-targets -- -D warnings

# The three criterion benches (compile_cache, trace_overhead,
# compile_lazy); they write BENCH_4.json, BENCH_6.json and BENCH_7.json
# at the repo root. The paper's tables are pinned by reproduce-check.
bench:
	cargo bench --workspace
	@test -f BENCH_4.json && echo "compile perf trajectory: BENCH_4.json" || true

# Just the compile-acceleration benchmark (fast; CI smoke).
bench-compile:
	cargo bench -p rqp-bench --bench compile_cache

# Tracing-overhead benchmark; records the ≤5% acceptance measure in
# BENCH_6.json at the repo root.
bench-trace:
	cargo bench -p rqp-bench --bench trace_overhead

# Lazy anytime compile benchmark; records the cold compile-to-first-
# execution speedup (4D fixture, eager full compile vs anchor begin +
# first contour band) in BENCH_7.json at the repo root.
bench-lazy:
	cargo bench -p rqp-bench --bench compile_lazy

# Persistent-cache smoke: the second identical compile must be a disk hit.
cache-smoke:
	rm -rf target/cache-smoke
	cargo run --release --bin rqp -- compile --query 2D_Q91 --resolution 6 --cache-dir target/cache-smoke
	cargo run --release --bin rqp -- compile --query 2D_Q91 --resolution 6 --cache-dir target/cache-smoke \
		| grep -q "compile cache: 1 hit(s)"
	@echo "cache-smoke: ok"

# Concurrent-serving smoke: 16 sessions over 2 fingerprints through the
# shared registry under a quiet chaos schedule. --strict fails on any
# rejected/failed session, a non-finite suboptimality, or a compile count
# different from the distinct fingerprint count.
serve-smoke:
	cargo run --release --bin rqp -- serve --workload examples/serve_smoke.workload \
		--workers 8 --queue 16 --chaos-seed 1 --strict true
	@echo "serve-smoke: ok"

# Remote-serving smoke: the same workload served (a) in-process and
# (b) by a persistent-session TCP client against a 2-shard deployment
# must produce byte-identical stable reports. Shards bind port 0 and
# publish their address via --addr-file; the client shuts the
# deployment down over the wire when done.
serve-remote-smoke:
	cargo build --release --bin rqp
	rm -rf target/remote-smoke && mkdir -p target/remote-smoke
	target/release/rqp serve --workload examples/remote_smoke.workload \
		--resolution 6 --stable-out target/remote-smoke/local.txt
	target/release/rqp serve --listen 127.0.0.1:0 --shard 0/2 --resolution 6 \
		--addr-file target/remote-smoke/shard0.addr & \
	target/release/rqp serve --listen 127.0.0.1:0 --shard 1/2 --resolution 6 \
		--addr-file target/remote-smoke/shard1.addr & \
	for i in $$(seq 1 100); do \
		[ -f target/remote-smoke/shard0.addr ] && [ -f target/remote-smoke/shard1.addr ] && break; \
		sleep 0.2; \
	done; \
	ADDRS="$$(cat target/remote-smoke/shard0.addr),$$(cat target/remote-smoke/shard1.addr)"; \
	target/release/rqp connect --addr "$$ADDRS" \
		--workload examples/remote_smoke.workload \
		--resolution 6 --stable-out target/remote-smoke/remote.txt && \
	target/release/rqp connect --addr "$$ADDRS" --shutdown true && \
	wait
	cmp target/remote-smoke/local.txt target/remote-smoke/remote.txt
	@echo "serve-remote-smoke: ok (stable reports byte-identical)"

# Causal-tracing smoke: a traced serve run must export a Chrome trace
# that reparses through the obs JSON codec and carries at least one
# single-flight compile span and one wait-on-peer span (`rqp trace-check`
# validates both). The folded-stack export must name the compile path.
trace-smoke:
	cargo run --release --bin rqp -- serve --workload examples/serve_smoke.workload \
		--workers 8 --queue 16 --strict true \
		--trace-out target/trace-smoke.json --flame-out target/trace-smoke.folded
	cargo run --release --bin rqp -- trace-check --file target/trace-smoke.json
	grep -q "session;ess_compile" target/trace-smoke.folded
	@echo "trace-smoke: ok"

reproduce:
	cargo run --release -p rqp-bench --bin reproduce

# The paper's tables pinned: the stdout of a Quick-scale `reproduce` run
# (results only; wall-clock lines go to stderr) must equal the committed
# golden byte for byte. Three runs: no cache, then a cold and a warm
# --cache-dir run, so a snapshot restore must print what a compile prints.
GOLDEN := crates/bench/golden/quick.txt
reproduce-check:
	cargo build --release -p rqp-bench --bin reproduce
	rm -rf target/reproduce-check && mkdir -p target/reproduce-check
	target/release/reproduce > target/reproduce-check/nocache.txt
	diff -u $(GOLDEN) target/reproduce-check/nocache.txt
	target/release/reproduce --cache-dir target/reproduce-check/cache > target/reproduce-check/cold.txt
	diff -u $(GOLDEN) target/reproduce-check/cold.txt
	test -n "$$(ls target/reproduce-check/cache)"
	target/release/reproduce --cache-dir target/reproduce-check/cache > target/reproduce-check/warm.txt
	diff -u $(GOLDEN) target/reproduce-check/warm.txt
	@echo "reproduce-check: ok (no-cache, cold and warm runs match $(GOLDEN))"
