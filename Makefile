PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint typecheck smoke obs-smoke serve-smoke fabric-smoke check coverage-check cov-mitigations bench-tests ci clean-cache

# Tier-1 suite (the correctness gate).
test:
	$(PYTHON) -m pytest -x -q

# Static invariant linter: determinism / rng / env-knob / async /
# telemetry contracts (see docs/static-analysis.md). Zero findings
# outside lint-baseline.json is the gate.
lint:
	$(PYTHON) -m repro.lint

# Optional static type/flake pass; skips cleanly when neither mypy nor
# pyflakes is installed (optional tooling, not a dep — same pattern as
# coverage-check).
typecheck:
	@if $(PYTHON) -c "import importlib.util,sys; sys.exit(importlib.util.find_spec('mypy') is None)"; then \
		$(PYTHON) -m mypy --ignore-missing-imports src/repro; \
	elif $(PYTHON) -c "import importlib.util,sys; sys.exit(importlib.util.find_spec('pyflakes') is None)"; then \
		$(PYTHON) -m pyflakes src/repro; \
	else \
		echo "mypy/pyflakes not installed; skipping typecheck"; \
	fi

# Tiny parallel sweep: serial vs parallel equivalence + warm-cache rerun.
smoke:
	$(PYTHON) -m repro.exec.smoke

# Observability layer: tracing demo + stats-snapshot determinism check.
obs-smoke:
	$(PYTHON) examples/tracing_demo.py
	$(PYTHON) -m repro.obs.selfcheck

# Simulation service: boots the daemon, drives three concurrent
# clients (dedup + bit-identical vs serial), then SIGTERM + restart
# resuming the journaled queue (see docs/serving.md).
serve-smoke:
	$(PYTHON) -m repro.serve.smoke

# Multi-node campaign fabric: three serve nodes sharing a remote
# result tier — sharded sweep bit-identical to serial with zero
# duplicate simulations under forced hedging, warm read-through rerun,
# and SIGKILL node-loss failover (see docs/fabric.md).
fabric-smoke:
	$(PYTHON) -m repro.fabric.smoke

# Independent verification: conformance oracle on traced campaign
# points, seeded mutation detection, differential design invariants,
# and a bounded fuzz smoke (see docs/verification.md).
check:
	$(PYTHON) -m repro.check.selfcheck --fuzz-cases 12

# Coverage for the verification layer itself; skips cleanly when
# pytest-cov is not installed (it is optional tooling, not a dep).
coverage-check:
	@if $(PYTHON) -c "import importlib.util,sys; sys.exit(importlib.util.find_spec('pytest_cov') is None)"; then \
		$(PYTHON) -m pytest -q --cov=src/repro/check --cov-report=term tests/check; \
	else \
		echo "pytest-cov not installed; running tests/check without coverage"; \
		$(PYTHON) -m pytest -q tests/check; \
	fi

# Coverage gate for the mitigation family and its verification
# harnesses (registry, differential, fuzzer, corpus, contract suite).
# Like coverage-check it runs the tests uninstrumented when pytest-cov
# is not installed (optional tooling, not a dependency).
cov-mitigations:
	@if $(PYTHON) -c "import importlib.util,sys; sys.exit(importlib.util.find_spec('pytest_cov') is None)"; then \
		$(PYTHON) -m pytest -q --cov=src/repro/mitigations --cov=src/repro/check \
			--cov-report=term --cov-fail-under=90 tests/mitigations tests/check; \
	else \
		echo "pytest-cov not installed; running tests/mitigations tests/check without coverage"; \
		$(PYTHON) -m pytest -q tests/mitigations tests/check; \
	fi

# The benchmark's own tests (perfbench/tests): host-speed scaling,
# span self-time accounting, pinned fingerprints and equal-seed repeats
# of each workload's TINY profile. They sit outside pytest's testpaths,
# so `test` does not collect them.
bench-tests:
	$(PYTHON) -m pytest -q perfbench/tests

# What CI runs.
ci: lint typecheck test smoke obs-smoke serve-smoke fabric-smoke check cov-mitigations bench-tests

clean-cache:
	rm -rf benchmarks/results/.cache .repro-cache
