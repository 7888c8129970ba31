# Convenience targets for the MLTCP reproduction.

PYTHON ?= python

# Canonical pytest-benchmark settings (5.x takes CLI flags, not ini
# options): GC off and a short warmup cut run-to-run noise, name-sorted
# output matches the bench-compare tables. The committed baselines in
# bench_reports/ were measured under these flags — keep them in sync
# (docs/PERFORMANCE.md, "Refreshing the baseline").
BENCH_FLAGS = --benchmark-sort=name --benchmark-columns=min,mean,stddev,rounds \
	--benchmark-warmup=on --benchmark-warmup-iterations=2 --benchmark-disable-gc

.PHONY: install verify lint typecheck test test-fast test-e2e-bench bench-e2e-smoke docs-check bench bench-smoke bench-faults-smoke bench-perf bench-perf-smoke bench-scale-smoke guards-smoke chaos-smoke serve-smoke verify-smoke figures examples clean

# The default verify path: repo-specific static analysis, type checking,
# the fast test tier, the end-to-end benchmark's own tests and a short
# traced run of each of its workloads, executable-docs check, a guarded
# fault-recovery smoke, a seeded chaos-campaign smoke, a crash-recovery
# service smoke, a bounded-model-checking smoke, then one-round perf- and
# scale-regression smokes. CI and the verify skill run this.
.DEFAULT_GOAL := verify
verify: lint typecheck test-fast test-e2e-bench bench-e2e-smoke docs-check guards-smoke chaos-smoke serve-smoke verify-smoke bench-perf-smoke bench-scale-smoke

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

# Layered linting: `repro lint` (the custom AST analyzer, always available —
# stdlib only) enforces the repo-specific determinism/unit rules; ruff
# carries the generic style layer and is skipped when not installed.
lint:
	PYTHONPATH=src $(PYTHON) -m repro lint src
	@if $(PYTHON) -c "import ruff" 2>/dev/null || command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "ruff not installed; skipping style layer (pip install -e .[dev])"; \
	fi

# mypy --strict on repro.core/simulator/tcp/fluid (config in pyproject.toml);
# skipped gracefully when mypy is not installed.
typecheck:
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy; \
	else \
		echo "mypy not installed; skipping typecheck (pip install -e .[dev])"; \
	fi

test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/

test-fast:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -m "not slow"

# The end-to-end benchmark's own tests (e2e_bench/, ~3 s). Its tracer
# wraps repro methods by name, so renaming or deleting one fails here
# instead of crashing a traced benchmark run.
test-e2e-bench:
	$(PYTHON) -m pytest e2e_bench

# One short traced run of each end-to-end benchmark workload (~30 s in
# all).  Fails unless the result line (the last line of output) reports
# "correct": true: every output digest matched e2e_bench/references.json
# and every layer predicted to run on the workload (e2e_bench/metrics.py,
# PREDICTIONS) recorded calls.
bench-e2e-smoke:
	@tmp=$$(mktemp) && status=0 && \
	for workload in paper fabric-serve; do \
		$(PYTHON) e2e_bench/run.py --workload $$workload --seed 0 --seconds 5 \
			--trace 1 > $$tmp && \
		tail -n 1 $$tmp | $(PYTHON) -c 'import json, sys; \
			sys.exit(json.load(sys.stdin)["correct"] is not True)' && \
		echo "bench-e2e-smoke: $$workload correct" || \
		{ cat $$tmp; echo "bench-e2e-smoke: $$workload is not correct"; \
			status=1; break; }; \
	done; rm -f $$tmp; exit $$status

# Execute every ```python fence in docs/*.md so documented examples can't
# rot; fragments keep highlighting with ```python no-check (docs/TOPOLOGIES.md).
docs-check:
	PYTHONPATH=src $(PYTHON) -m repro docs-check docs

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only $(BENCH_FLAGS)

# The simulator microbenchmarks (plus the armed-guardrail overhead suite),
# gated against the committed optimized-tree baseline (>15% slower on any
# benchmark fails). See docs/PERFORMANCE.md and docs/ROBUSTNESS.md.
bench-perf:
	@tmp=$$(mktemp) && \
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_simulator_performance.py \
		benchmarks/bench_guard_overhead.py \
		benchmarks/bench_chaos_recovery.py \
		benchmarks/bench_service_churn.py \
		benchmarks/bench_scale_fluid.py \
		--benchmark-only --benchmark-json $$tmp $(BENCH_FLAGS) -q && \
	PYTHONPATH=src $(PYTHON) -m repro bench-compare $$tmp \
		--baseline bench_reports/perf_baseline.json; \
	status=$$?; rm -f $$tmp; exit $$status

# Cheap single-round variant wired into `verify`: one round per benchmark,
# compared with a generous threshold so machine noise doesn't flake CI.
# Real regression hunting should use `make bench-perf`.
bench-perf-smoke:
	@tmp=$$(mktemp) && \
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_simulator_performance.py \
		benchmarks/bench_guard_overhead.py \
		benchmarks/bench_chaos_recovery.py \
		benchmarks/bench_service_churn.py \
		benchmarks/bench_scale_fluid.py \
		--benchmark-only --benchmark-json $$tmp --benchmark-disable-gc \
		--benchmark-min-rounds=1 --benchmark-warmup=off -q && \
	PYTHONPATH=src $(PYTHON) -m repro bench-compare $$tmp \
		--baseline bench_reports/perf_baseline.json --threshold 1.0; \
	status=$$?; rm -f $$tmp; exit $$status

# The 10k-flow / 1000-job x 64-rack scale benchmarks of the vectorized
# fluid core, single round against the committed baseline with a generous
# threshold (docs/PERFORMANCE.md, "Vectorized core & scale benchmarks").
# --select restricts the gate to the scale entries so the focused target
# doesn't report the rest of the baseline as missing; the
# pre-vectorization scalar numbers live in
# bench_reports/perf_scale_seed.json for historical comparison.
bench-scale-smoke:
	@tmp=$$(mktemp) && \
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_scale_fluid.py \
		--benchmark-only --benchmark-json $$tmp --benchmark-disable-gc \
		--benchmark-min-rounds=1 --benchmark-warmup=off -q && \
	PYTHONPATH=src $(PYTHON) -m repro bench-compare $$tmp \
		--baseline bench_reports/perf_baseline.json --threshold 1.0 \
		--select 'test_scale_*'; \
	status=$$?; rm -f $$tmp; exit $$status

# Both substrates through the guarded fault-recovery experiment with every
# invariant monitor armed in `raise` mode: one genuine violation aborts the
# run and fails the target (docs/ROBUSTNESS.md).
guards-smoke:
	PYTHONPATH=src $(PYTHON) -m repro guards --run --policy raise \
		--substrate both --iterations 24

# One tiny seeded chaos campaign on the default fabric, with monitors
# recording and the recovery-SLO report validated against the schema
# (docs/FAULTS.md "Fabric faults & chaos campaigns").
chaos-smoke:
	@tmp=$$(mktemp) && \
	PYTHONPATH=src $(PYTHON) -m repro chaos --fast --campaigns 1 --no-cache \
		--report $$tmp && \
	PYTHONPATH=src $(PYTHON) -m repro validate-report $$tmp \
		--schema docs/run_report.schema.json; \
	status=$$?; rm -f $$tmp; exit $$status

# A short seeded churn run of the service daemon with one injected
# stepper crash: the supervisor must recover from the write-ahead
# journal and the run-report (with its service snapshot records) must
# validate against the schema (docs/SERVICE.md).  Then two more
# processes read the journal back from disk: --query must count all 10
# committed epochs, and --resume with the same flags must print the
# per-job fingerprint of the run that wrote it.
SERVE_SMOKE_FLAGS = --epochs 10 --rate 0.8 --seed 3 --flash 4:3 --crash-at-epoch 5
serve-smoke:
	@tmp=$$(mktemp -d) && \
	PYTHONPATH=src $(PYTHON) -m repro serve $(SERVE_SMOKE_FLAGS) \
		--journal $$tmp/svc.journal --report $$tmp/svc.run.json \
		> $$tmp/run.out && \
	PYTHONPATH=src $(PYTHON) -m repro validate-report $$tmp/svc.run.json \
		--schema docs/run_report.schema.json && \
	PYTHONPATH=src $(PYTHON) -m repro serve --query $$tmp/svc.journal \
		> $$tmp/query.out && \
	grep -q '"committed_epochs": 10,' $$tmp/query.out && \
	PYTHONPATH=src $(PYTHON) -m repro serve $(SERVE_SMOKE_FLAGS) \
		--journal $$tmp/svc.journal --resume > $$tmp/resume.out && \
	print=$$(grep -o 'per-job fingerprint [0-9a-f]*' $$tmp/run.out) && \
	grep -q "$$print" $$tmp/resume.out && \
	echo "serve-smoke: recovered, queried (10 epochs) and resumed to $$print"; \
	status=$$?; \
	if [ $$status -ne 0 ]; then cat $$tmp/*.out 2>/dev/null; fi; \
	rm -rf $$tmp; exit $$status

# Bounded model checking of Algorithm 1 on each property's reduced smoke
# grid, with a short per-query solver budget: every property must reach
# its expected verdict and every committed certificate/counterexample must
# exist and be fresh; the run-report's verification records must validate
# against the schema (docs/VERIFICATION.md).
verify-smoke:
	@tmp=$$(mktemp) && \
	PYTHONPATH=src $(PYTHON) -m repro verify --fast --check --timeout 10 \
		--report $$tmp && \
	PYTHONPATH=src $(PYTHON) -m repro validate-report $$tmp \
		--schema docs/run_report.schema.json; \
	status=$$?; rm -f $$tmp; exit $$status

# One fluid benchmark through the parallel runner with a throwaway cache,
# then validate its JSON run-report against the schema in docs/.
bench-smoke:
	@tmp=$$(mktemp -d) && \
	REPRO_CACHE_DIR=$$tmp REPRO_WORKERS=2 \
		PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_ablation_noise.py --benchmark-only -q && \
	PYTHONPATH=src $(PYTHON) -m repro validate-report bench_reports/ablation_noise.run.json \
		--schema docs/run_report.schema.json; \
	status=$$?; rm -rf $$tmp; exit $$status

# The fault-recovery bench with a deliberately crashing point injected:
# the sweep must survive the crash (isolate_failures), record it in the
# run-report as a crash record, and the report must still validate.
bench-faults-smoke:
	@tmp=$$(mktemp -d) && \
	REPRO_CACHE_DIR=$$tmp REPRO_WORKERS=2 REPRO_FAULTS_INJECT_CRASH=1 \
		PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_fault_recovery.py --benchmark-only -q && \
	PYTHONPATH=src $(PYTHON) -m repro validate-report bench_reports/fault_recovery.run.json \
		--schema docs/run_report.schema.json; \
	status=$$?; rm -rf $$tmp; exit $$status

# Regenerate every paper figure via the CLI (text reports to stdout).
figures:
	PYTHONPATH=src $(PYTHON) -m repro run all

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		PYTHONPATH=src $(PYTHON) $$script || exit 1; \
	done

clean:
	rm -rf bench_reports .pytest_cache .benchmarks .repro_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
