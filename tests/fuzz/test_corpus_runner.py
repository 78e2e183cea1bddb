"""The corpus runner end to end: determinism, mutation kill, replay.

The acceptance loop for the whole fuzz subsystem lives here: a lying
class-membership probe (the classic mutation test) must be *caught* by
the metamorphic oracles, *shrunk* to a minimal case, *persisted* as a
repro spec, and that spec must *replay* through ``repro batch``.
"""

import json

import pytest

from repro.cli import main
from repro.fuzz import generate_case, run_corpus, write_repro_spec
from repro.fuzz import oracles as oracles_module
from repro.fuzz.oracles import ORACLES, Violation
from repro.termination.precedence import ORACLE
from repro.workloads.families import sigma_family

pytestmark = pytest.mark.fuzz


def corpus_verdicts(**kwargs):
    report = run_corpus(**kwargs)
    return ([(f.violation.oracle, f.violation.case_label,
              f.violation.detail) for f in report.failures],
            report.skips, report.oracle_calls)


def test_clean_corpus_passes_and_is_deterministic():
    kwargs = dict(seed=0, n_cases=8, pool_every=0, shrink=False)
    first = corpus_verdicts(**kwargs)
    # A different corpus warms the precedence oracle and the analyze
    # memo in between; the report must not notice.
    run_corpus(seed=3, n_cases=4, pool_every=0, shrink=False)
    second = corpus_verdicts(**kwargs)
    assert first == second
    assert first[0] == []                       # no violations on seed 0
    assert first[2] == 8 * len(ORACLES)         # every oracle, every case


def test_report_to_dict_is_json_safe():
    report = run_corpus(seed=0, n_cases=2, pool_every=0, shrink=False)
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["ok"] is True
    assert payload["cases"] == 2
    assert payload["oracle_calls"] == report.oracle_calls


# ----------------------------------------------------------------------
# the mutation test: a lying probe must be caught, shrunk, replayable
# ----------------------------------------------------------------------
def test_lying_probe_is_caught_shrunk_and_replayable(monkeypatch, tmp_path):
    monkeypatch.setitem(oracles_module.PROBES, "safe", lambda sigma: True)
    report = run_corpus(seed=5, n_cases=4, deep_hierarchy_every=1,
                        pool_every=0, repro_dir=tmp_path)
    assert not report.ok
    oracles_hit = {f.violation.oracle for f in report.failures}
    assert "hierarchy" in oracles_hit           # Figure 1 implication broken

    failure = report.failures[0]
    # Shrinking kept the failure while discarding structure.
    assert failure.shrink is not None
    assert failure.shrink.evaluations > 0
    assert len(failure.shrunk.sigma) <= len(
        generate_case(5, failure.shrunk.index).sigma)

    # The repro spec landed on disk with its fuzz coordinates...
    assert failure.repro_path is not None
    spec = json.loads(open(failure.repro_path).read())
    assert spec["fuzz"]["oracle"] == failure.violation.oracle
    assert spec["fuzz"]["seed"] == 5
    assert spec["constraints"] == failure.shrunk.constraints_text()

    # ...and replays through the ordinary batch CLI.
    assert main(["batch", failure.repro_path, "--workers", "1"]) == 0


def test_violations_are_deterministic_across_runs(monkeypatch):
    monkeypatch.setitem(oracles_module.PROBES, "safe", lambda sigma: True)
    kwargs = dict(seed=5, n_cases=4, deep_hierarchy_every=1,
                  pool_every=0, shrink=False)
    assert corpus_verdicts(**kwargs) == corpus_verdicts(**kwargs)


def test_injected_oracle_registry_is_used():
    calls = []

    def always_fires(case, ctx):
        calls.append(case.label())
        return [Violation(oracle="custom", case_label=case.label(),
                          detail="synthetic")]

    report = run_corpus(seed=1, n_cases=3, oracles={"custom": always_fires},
                        shrink=False)
    assert len(calls) == 3
    assert len(report.failures) == 3
    assert report.oracle_calls == 3


# ----------------------------------------------------------------------
# the node budget
# ----------------------------------------------------------------------
def test_exhausted_probes_become_hierarchy_skips_not_verdicts(monkeypatch):
    """A probe that reads an answer the node budget cut short may
    contradict Figure 1 without any bug, so the hierarchy oracle skips
    the case instead of judging it."""
    hierarchy_only = dict(seed=2, n_cases=2, deep_hierarchy_every=0,
                          oracles={"hierarchy": ORACLES["hierarchy"]},
                          shrink=False)
    # Claiming weak acyclicity everywhere breaks Figure 1 on case 1...
    monkeypatch.setitem(oracles_module.PROBES, "weakly_acyclic",
                        lambda sigma: True)
    caught = run_corpus(**hierarchy_only)
    assert {f.violation.case_label for f in caught.failures} \
        == {"fuzz_s2_c1"}

    # ...but a claim that read a conservative answer is not judged.
    (alpha,) = sigma_family(3)

    def exhausted_claim(sigma):
        ORACLE.precedes_k((alpha,) * 4, [])     # needs 311,953 nodes
        return True

    monkeypatch.setitem(oracles_module.PROBES, "weakly_acyclic",
                        exhausted_claim)
    report = run_corpus(**hierarchy_only)
    assert report.ok
    assert report.skips == [
        f"[hierarchy] fuzz_s2_c{index}: precedence answers cut short "
        "by the node budget: 1" for index in range(2)]


# ----------------------------------------------------------------------
# repro spec writing
# ----------------------------------------------------------------------
def test_write_repro_spec_shapes(tmp_path):
    case = generate_case(3, 1)
    chase_path = write_repro_spec(case, Violation(
        oracle="engine_parity", case_label=case.label(), detail="d"),
        tmp_path)
    query_path = write_repro_spec(case, Violation(
        oracle="certain_answers", case_label=case.label(), detail="d"),
        tmp_path)
    chase_spec = json.loads(chase_path.read_text())
    query_spec = json.loads(query_path.read_text())
    assert chase_spec["kind"] == "chase" and "query" not in chase_spec
    assert query_spec["kind"] == "query" and query_spec["query"]
    assert chase_path.name == f"{case.label()}_engine_parity.json"
    # Both parse as ordinary batch jobs (the fuzz key is ignored).
    from repro.service.jobs import job_from_dict
    assert job_from_dict(chase_spec).kind == "chase"
    assert job_from_dict(query_spec).kind == "query"
