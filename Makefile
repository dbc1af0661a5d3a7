# Developer conveniences for the fauré reproduction.
#
# Every target that runs code uses PYTHONPATH=src — the tier-1 invocation
# documented in ROADMAP.md/README.md — so the repo works without an
# editable install.

PYTHON ?= python3
RUN = PYTHONPATH=src $(PYTHON)

.PHONY: install test test-oracle test-robustness test-chaos test-serve test-replication bench bench-memo bench-incremental bench-serve bench-tables bench-smoke test-dataflow examples lint-programs lint-sarif typecheck lint-self clean

install:
	pip install -e . --no-build-isolation

# tier-1: the whole suite, matching ROADMAP.md exactly
test:
	$(RUN) -m pytest -x -q

# differential world-enumeration oracle only
test-oracle:
	$(RUN) -m pytest tests/oracle/ -q

# governor / degradation / fault-injection suite only
test-robustness:
	$(RUN) -m pytest tests/robustness/ -q

# chaos suite: kill-mid-checkpoint resume, serve and replication
# kills — every recovered run must stay byte-identical to a clean one
# (see docs/ROBUSTNESS.md)
test-chaos:
	$(RUN) -m pytest tests/chaos/ -q

bench:
	$(RUN) -m pytest benchmarks/ --benchmark-only

# serve daemon: WAL recovery, epoch isolation, admission control,
# compaction, withdrawal, replicas, protocol negotiation
test-serve:
	$(RUN) -m pytest tests/serve/ -q

# replication + compaction chaos: SIGKILL the primary mid-ingest with a
# replica attached, kill a compaction between snapshot fsync and
# segment retirement, SIGKILL a replica mid-tail — recovery and
# convergence must stay byte-identical to a never-killed run
test-replication:
	$(RUN) -m pytest tests/chaos/test_replication_chaos.py -q

# canonical interning + shared memoization decision-call comparison
bench-memo:
	$(RUN) benchmarks/bench_memo.py

# incremental maintenance vs recompute-from-scratch; rewrites the JSON
# artifact BENCH_incremental.json (per-update latency + speedup), which
# report.py also emits
bench-incremental:
	$(RUN) benchmarks/bench_incremental.py

# serve daemon under multi-client load (query p50/p99, acked-ingest
# throughput, shed rate, threshold compaction); exits non-zero unless a
# cold restart answers byte-identically and the WAL stays bounded.  The
# JSON artifact is emitted by report.py as BENCH_serve.json
bench-serve:
	$(RUN) benchmarks/bench_serve.py

# the paper's tables/figures in their printed layout, plus the
# machine-readable BENCH_table4.json / BENCH_incremental.json /
# BENCH_serve.json artifacts (see docs/PERFORMANCE.md)
bench-tables:
	$(RUN) benchmarks/bench_table4.py
	$(RUN) benchmarks/bench_lossless.py
	$(RUN) benchmarks/bench_verification.py
	$(RUN) benchmarks/bench_ablation.py
	$(RUN) benchmarks/bench_scale.py
	$(RUN) benchmarks/bench_memo.py --smoke
	$(RUN) benchmarks/bench_incremental.py
	$(RUN) benchmarks/bench_serve.py
	$(RUN) benchmarks/report.py

# CI-sized Table-4 smoke: smallest prefix size; exits non-zero unless
# every JSON artifact parses and the incremental and serve correctness
# gates hold.  The smoke-sized artifacts go to build/bench-smoke (git-
# ignored), never over the committed baselines.
bench-smoke:
	$(RUN) benchmarks/bench_table4.py --sizes 20
	$(RUN) benchmarks/report.py --smoke --sizes 20 --out-dir build/bench-smoke

# lint-findings oracle gate: on seeded random programs every F016/F019
# finding is validated by evaluating without the flagged rules, every
# F017 verdict against world enumeration (see docs/ANALYSIS.md §dataflow).
test-dataflow:
	$(RUN) -m pytest tests/analysis/test_dataflow_oracle.py -q

# SARIF 2.1.0 lint log over the bundled programs (CI annotation surface);
# jq-less validation: the log must parse as JSON and carry a runs[] array.
lint-sarif:
	$(RUN) -m repro lint examples/programs/*.fl \
		tests/fixtures/programs/clean/*.fl \
		tests/fixtures/programs/warn/*.fl \
		--format sarif > lint.sarif
	$(PYTHON) -c "import json; log = json.load(open('lint.sarif')); \
		assert log['version'] == '2.1.0' and log['runs'], 'bad SARIF log'; \
		print('lint.sarif:', len(log['runs'][0]['results']), 'result(s)')"

# static analysis gate over every bundled fauré-log program: the clean
# and warn fixture sets plus the example programs must carry no
# error-severity findings; each bad fixture must produce at least one.
lint-programs:
	$(RUN) -m repro lint examples/programs/*.fl \
		tests/fixtures/programs/clean/*.fl \
		tests/fixtures/programs/warn/*.fl
	@for f in tests/fixtures/programs/bad/*.fl; do \
		if $(RUN) -m repro lint $$f >/dev/null 2>&1; then \
			echo "FAIL: expected error-severity findings in $$f"; exit 1; \
		else \
			echo "ok (errors reported): $$f"; \
		fi; \
	done

# mypy over the analysis subsystem and the modules this PR touched;
# config lives in pyproject.toml ([tool.mypy]).
typecheck:
	$(RUN) -m mypy src/repro/analysis src/repro/faurelog/ast.py src/repro/faurelog/parser.py \
		src/repro/ctable/parse.py src/repro/engine/explain.py src/repro/cli.py

examples:
	@for f in examples/*.py; do \
		echo "=== $$f ==="; \
		PYTHONPATH=src $(PYTHON) $$f || exit 1; \
		echo; \
	done

clean:
	find . -type d -name __pycache__ -prune -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis build *.egg-info src/*.egg-info
