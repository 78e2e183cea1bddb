PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-fast test-service query-smoke fuzz-smoke obs-smoke http-smoke bench bench-smoke docs-check

test:
	$(PYTHON) -m pytest -x -q

# Tier-1 minus the marked-slow stress tests -- the quick inner loop.
test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow and not fuzz"

# Seeded metamorphic smoke corpus: 200 generated constraint sets
# through every oracle (hierarchy, termination, engine parity, core
# isomorphism, certain answers, service parity).  The report is a
# function of the seed: step and search-node counts bound the work,
# never a clock.  Minimized repro specs for any violation land in
# examples/repros/.  Finishes well under a minute.
fuzz-smoke:
	$(PYTHON) -m repro fuzz --seed 0 --cases 200 --repro-dir examples/repros

# Service-layer smoke: a real `repro batch` over the example jobs on
# 2 workers.  The service, CLI and budget tests run in tier-1 (`make
# test`), not again here.
test-service:
	$(PYTHON) -m repro batch examples/jobs --workers 2 --events

# Query-service smoke: the shipped certain-answer specs (terminating,
# stratified-only, depth-bounded guarded) end to end through
# `repro query` on 2 workers.
query-smoke:
	$(PYTHON) -m repro query examples/queries --workers 2 --events

# Observability smoke: a real instrumented 2-worker batch -- merged
# fleet-wide metrics on stderr, an NDJSON trace validated against the
# span schema by tools/check_trace.py.  The obs test package runs in
# tier-1 (`make test`), not again here.
obs-smoke:
	$(PYTHON) -m repro batch examples/jobs --workers 2 \
	    --metrics --metrics-json OBS_smoke.json --trace OBS_smoke.ndjson
	$(PYTHON) tools/check_trace.py OBS_smoke.ndjson
	$(PYTHON) -m repro stats OBS_smoke.json > /dev/null
	@rm -f OBS_smoke.json OBS_smoke.ndjson
	@echo "obs ok"

# HTTP front-end smoke: a real `repro serve --http` subprocess on an
# ephemeral port, a 16-request mixed burst (chase/query/cached/
# malformed) from concurrent stdlib clients, /stats schema validation
# and a graceful POST /shutdown drain -- all via tools/http_smoke.py.
http-smoke:
	$(PYTHON) tools/http_smoke.py

bench:
	$(PYTHON) -m pytest benchmarks/bench_*.py -q

bench-smoke:
	REPRO_BENCH_SIZES=4,8 $(PYTHON) -m pytest benchmarks/bench_chase_scaling.py -q --benchmark-disable

# Fails on broken intra-repo markdown links and on references to
# nonexistent files from docs or docstrings (the class of rot where a
# module keeps pointing at a long-deleted design document), and on any
# shipped example script that does not run to completion.
docs-check:
	@test -f docs/ARCHITECTURE.md || { echo "docs/ARCHITECTURE.md missing"; exit 1; }
	@test -f docs/PAPER_MAP.md || { echo "docs/PAPER_MAP.md missing"; exit 1; }
	$(PYTHON) tools/check_docs.py
	@for example in examples/*.py; do \
	    echo "$(PYTHON) $$example"; \
	    $(PYTHON) $$example > /dev/null || exit 1; \
	done
	@echo "docs ok"
