"""The no-op fast path: disabled observability records and changes
*nothing*.

This is the mutation-style guarantee behind the <=5% overhead budget:
with ``OBS.enabled`` False and no active tracer, a chase through the
full stack (runner, triggers, plans, storage) must leave the
registry untouched -- not "roughly empty", *empty* -- and enabling
observability must not perturb any verdict.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.chase import chase, ChaseStatus
from repro.homomorphism.engine import null_renaming_equivalent
from repro.lang.parser import parse_constraints, parse_instance
from repro.obs import metrics, trace
from repro.obs.trace import Tracer

_SRC = str(Path(__file__).resolve().parents[2] / "src")

SIGMA = """
a1: S(x) -> E(x, y)
a2: E(x, y) -> T(y)
"""
INSTANCE = "S(a). S(b). E(a, b)."


def run_chase(max_steps=100):
    return chase(parse_instance(INSTANCE), parse_constraints(SIGMA),
                 max_steps=max_steps)


def comparable(result):
    # Null ids draw from a process-global sequence, so instances are
    # compared up to null renaming, never by raw string.
    return (result.status, len(result.sequence), len(result.instance))


def test_disabled_run_leaves_the_registry_empty():
    assert not metrics.OBS.enabled
    run_chase()
    # Zero writes: no counter, gauge or histogram was ever created.
    assert metrics.OBS.empty()
    assert metrics.OBS.counters == {}
    assert metrics.OBS.gauges == {}


def test_enabling_obs_does_not_change_the_verdict():
    baseline = run_chase()
    metrics.enable()
    records = []
    with trace.tracing(Tracer(records.append)):
        instrumented = run_chase()
    assert comparable(instrumented) == comparable(baseline)
    assert null_renaming_equivalent(instrumented.instance,
                                    baseline.instance)
    # ... and the run actually recorded something.
    assert metrics.OBS.counters["chase.runs"] == 1
    assert metrics.OBS.counters["chase.steps"] \
        == len(instrumented.sequence)
    assert any(r["name"] == "chase" for r in records)


def test_divergent_budget_verdict_unchanged_under_obs():
    sigma = parse_constraints("d: S(x) -> E(x, y), S(y)")
    instance = parse_instance("S(a).")
    baseline = chase(instance, sigma, max_steps=25)
    assert baseline.status is ChaseStatus.EXCEEDED_BUDGET
    metrics.enable()
    with trace.tracing(Tracer(lambda record: None, sample=5)):
        instrumented = chase(instance, sigma, max_steps=25)
    assert instrumented.status is baseline.status
    assert len(instrumented.sequence) == len(baseline.sequence)
    assert metrics.OBS.counters["chase.status.exceeded_budget"] == 1


def _chase_in_subprocess(extra_env):
    """Run a chase in a fresh interpreter; report (enabled, verdict)."""
    code = (
        "from repro.chase import chase\n"
        "from repro.lang.parser import parse_constraints, "
        "parse_instance\n"
        "from repro.obs.metrics import OBS\n"
        f"sigma = parse_constraints('''{SIGMA}''')\n"
        f"result = chase(parse_instance({INSTANCE!r}), sigma)\n"
        "print(OBS.enabled, result.status.value, "
        "len(result.sequence), len(result.instance), OBS.empty())\n")
    env = {**os.environ, "PYTHONPATH": _SRC}
    env.pop("REPRO_OBS", None)
    env.update(extra_env)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def test_repro_obs_0_matches_unset_exactly():
    unset = _chase_in_subprocess({})
    zero = _chase_in_subprocess({"REPRO_OBS": "0"})
    assert unset == zero
    assert unset.startswith("False ")       # disabled by default
    assert unset.endswith(" True")          # registry untouched


def test_repro_obs_1_enables_at_import_without_changing_the_verdict():
    baseline = _chase_in_subprocess({})
    enabled = _chase_in_subprocess({"REPRO_OBS": "1"})
    # Same verdict fields; only the enabled/empty flags differ.
    assert enabled.split()[1:4] == baseline.split()[1:4]
    assert enabled.startswith("True ")
    assert enabled.endswith(" False")       # counters were recorded
