"""Observability must be invisible to the fuzzer's oracles.

The metamorphic oracles cross-validate chase verdicts, hierarchy
membership and pool parity; if enabling metrics or tracing shifted
*any* verdict, the instrumentation would be changing engine behaviour
rather than observing it.  Every budget of the corpus is a count, so
both passes are fully deterministic and comparable verdict-by-verdict.
"""

import pytest

from repro.fuzz import run_corpus
from repro.obs import metrics, trace
from repro.obs.trace import Tracer

pytestmark = pytest.mark.fuzz


def corpus_verdicts(tmp_path):
    report = run_corpus(seed=7, n_cases=6, max_steps=150,
                        pool_every=0, shrink=False,
                        repro_dir=tmp_path)
    return {
        "failures": [(f.violation.oracle, f.violation.case_label,
                      f.violation.detail) for f in report.failures],
        "skips": list(report.skips),
        "oracle_calls": report.oracle_calls,
        "cases": report.n_cases,
        "ok": report.ok,
    }


def test_metrics_and_tracing_never_change_fuzz_verdicts(tmp_path):
    baseline = corpus_verdicts(tmp_path / "off")
    metrics.enable()
    records = []
    with trace.tracing(Tracer(records.append, sample=2)):
        instrumented = corpus_verdicts(tmp_path / "on")
    assert instrumented == baseline
    # The instrumented pass really observed the corpus.
    assert metrics.OBS.counters["chase.runs"] > 0
    assert any(r["name"] == "chase" for r in records)
