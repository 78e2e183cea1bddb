"""ChaseJob specs, content fingerprints and in-process execution."""

import json
from pathlib import Path

import pytest

from repro.chase import ChaseStatus
from repro.chase.strategies import (OrderedStrategy, RandomStrategy,
                                    RoundRobinStrategy, StratifiedStrategy)
from repro.lang.atoms import Atom
from repro.lang.instance import Instance
from repro.lang.parser import parse_constraints
from repro.lang.terms import Constant
from repro.service.jobs import (ChaseJob, execute_job, instance_fingerprint,
                                job_from_dict, resolve_strategy,
                                STATUS_ERROR)
from repro.workloads.paper import example4, intro_alpha2

TERMINATING = "a1: S(x) -> E(x, y)"
DIVERGENT = "a2: S(x) -> E(x, y), S(y)"


def make_job(constraints=TERMINATING, instance="S(a). S(b).", **kw):
    payload = {"constraints": constraints, "instance": instance}
    payload.update(kw)
    return ChaseJob.from_dict(payload, name=kw.get("name", "job"))


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
def test_instance_fingerprint_ignores_insertion_order_and_backend():
    facts = [Atom("E", (Constant(f"c{i}"), Constant(f"c{i+1}")))
             for i in range(5)]
    fp = instance_fingerprint(Instance(facts))
    assert fp == instance_fingerprint(Instance(list(reversed(facts))))
    assert fp == instance_fingerprint(Instance(facts, backend="column"))


def test_instance_fingerprint_separates_content():
    one = Instance([Atom("S", (Constant("a"),))])
    other = Instance([Atom("S", (Constant("b"),))])
    typed = Instance([Atom("S", (Constant(1),))])
    stringy = Instance([Atom("S", (Constant("1"),))])
    fingerprints = {instance_fingerprint(i)
                    for i in (one, other, typed, stringy)}
    assert len(fingerprints) == 4


def test_job_fingerprint_excludes_name_and_wall_clock():
    base = make_job(name="alpha")
    assert base.fingerprint() == make_job(name="beta").fingerprint()
    assert base.fingerprint() == make_job(wall_clock=0.5).fingerprint()


def test_job_fingerprint_ignores_labels_but_not_order():
    unlabeled = make_job(constraints="S(x) -> E(x, y)\nE(x, y) -> S(y)")
    labeled = make_job(constraints="a: S(x) -> E(x, y)\nb: E(x, y) -> S(y)")
    swapped = make_job(constraints="E(x, y) -> S(y)\nS(x) -> E(x, y)")
    assert unlabeled.fingerprint() == labeled.fingerprint()
    assert unlabeled.fingerprint() != swapped.fingerprint()


def test_job_fingerprint_covers_budgets_and_strategy():
    base = make_job()
    assert base.fingerprint() != make_job(max_steps=7).fingerprint()
    assert base.fingerprint() != make_job(max_facts=9).fingerprint()
    assert base.fingerprint() != make_job(strategy="ordered").fingerprint()
    assert base.fingerprint() != make_job(cycle_limit=2).fingerprint()


# ----------------------------------------------------------------------
# spec parsing
# ----------------------------------------------------------------------
def test_from_dict_accepts_wire_instance_and_constraint_list():
    job = ChaseJob.from_dict({
        "constraints": ["S(x) -> E(x, y)", "E(x, y) -> S(y)"],
        "instance": {"facts": [["S", [["c", "a"]]], ["E", [["n", 4],
                                                          ["c", "b"]]]]},
    })
    assert len(job.sigma) == 2
    assert len(job.instance) == 2
    assert any(arg.is_null for fact in job.instance for arg in fact.args)


def test_from_path_defaults_name_to_stem(tmp_path):
    path = tmp_path / "my_job.json"
    path.write_text(json.dumps({"constraints": TERMINATING,
                                "instance": "S(a)."}))
    assert ChaseJob.from_path(path).name == "my_job"


def test_from_dict_rejects_missing_keys():
    from repro.service.serialize import WireError
    with pytest.raises(WireError):
        ChaseJob.from_dict({"constraints": TERMINATING})
    with pytest.raises(WireError):
        ChaseJob.from_dict("not a dict")


def test_from_dict_honours_explicit_zero_budgets():
    job = ChaseJob.from_dict({"constraints": TERMINATING,
                              "instance": "S(a).", "max_steps": 0,
                              "max_k": 0})
    assert job.max_steps == 0 and job.max_k == 0
    result = execute_job(job)
    assert result.status == ChaseStatus.EXCEEDED_BUDGET.value
    assert result.steps == 0


def test_wire_roundtrip_preserves_fingerprint():
    job = make_job(backend="column", max_facts=50, cycle_limit=2)
    clone = ChaseJob.from_dict(job.to_dict())
    assert clone.fingerprint() == job.fingerprint()


EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: Fingerprints of the shipped chase and query specs, backend pinned
#: to ``set``.  Fingerprints key every warm cache, so a change to any
#: of these digests must come with a bump of the digested ``"v"``.
PINNED_FINGERPRINTS = {
    "jobs/divergent_guarded":
        "d8b370cd440d273ab0a1d87cc4b5378b44effdf30e29568c3d7a954977ed65bb",
    "jobs/safe_nulls":
        "cdf5d8c6a485e7fc4390cda69ef0554cfff8f7d76b46678a946e6d5ae7490793",
    "jobs/terminating_chain":
        "204caf09b440ec1adf3529865aa066573bbd432b918f8aa59491c19fe0e6d4ef",
    "queries/depth_bounded_guarded":
        "125dd92fddb60f9e3ceec4371aace3d514ff0eea18e875810725da50a4bae797",
    "queries/stratified_only":
        "095047b06b789f0708eb37dcb4baac8a6c9924b2cebe4e66a15fb87d1d4b3420",
    "queries/terminating_join":
        "cb8898dab60c599431f899c2abaf0a7396ebe956d683c52b954eb620c2411d18",
}


@pytest.mark.parametrize(
    "path", sorted(EXAMPLES.glob("jobs/*.json"))
    + sorted(EXAMPLES.glob("queries/*.json")),
    ids=lambda path: f"{path.parent.name}/{path.stem}")
def test_shipped_spec_fingerprints_are_pinned(path):
    payload = json.loads(path.read_text())
    payload["backend"] = "set"
    job = job_from_dict(payload, name=path.stem)
    assert job.fingerprint() \
        == PINNED_FINGERPRINTS[f"{path.parent.name}/{path.stem}"]


# ----------------------------------------------------------------------
# strategy resolution
# ----------------------------------------------------------------------
def test_resolve_strategy_names():
    sigma = parse_constraints(TERMINATING)
    assert isinstance(resolve_strategy("ordered", sigma), OrderedStrategy)
    assert isinstance(resolve_strategy("round_robin", sigma),
                      RoundRobinStrategy)
    assert isinstance(resolve_strategy("random:7", sigma), RandomStrategy)
    with pytest.raises(ValueError):
        resolve_strategy("simulated_annealing", sigma)


def test_resolve_auto_uses_the_termination_report():
    # Guaranteed-for-every-order set: keep the default (None).
    assert resolve_strategy("auto", parse_constraints(TERMINATING)) is None
    # Stratified-only set (Example 4): Theorem 2's stratum order.
    assert isinstance(resolve_strategy("auto", example4()),
                      StratifiedStrategy)


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def test_execute_job_is_deterministic():
    job = make_job(constraints=TERMINATING, instance="S(a). S(b). S(c).")
    first, second = execute_job(job), execute_job(job)
    assert first.status == ChaseStatus.TERMINATED.value
    assert first.facts == second.facts
    assert first.steps == second.steps
    assert first.fingerprint == second.fingerprint


def test_execute_divergent_job_respects_step_budget():
    job = make_job(constraints=DIVERGENT, instance="S(a).", max_steps=25)
    result = execute_job(job)
    assert result.status == ChaseStatus.EXCEEDED_BUDGET.value
    assert result.steps == 25
    assert result.cacheable


def test_execute_divergent_job_respects_fact_budget():
    job = make_job(constraints=DIVERGENT, instance="S(a).",
                   max_steps=1_000_000, max_facts=40)
    result = execute_job(job)
    assert result.status == ChaseStatus.EXCEEDED_BUDGET.value
    assert "fact budget" in result.failure_reason
    assert result.cacheable


def test_execute_divergent_job_respects_wall_clock():
    job = make_job(constraints=DIVERGENT, instance="S(a).",
                   max_steps=100_000_000, wall_clock=0.05)
    result = execute_job(job)
    assert result.status == ChaseStatus.EXCEEDED_WALL_CLOCK.value
    assert not result.cacheable


def test_execute_monitored_job_aborts_deterministically():
    job = make_job(constraints=DIVERGENT, instance="S(a).",
                   max_steps=1_000_000, cycle_limit=3)
    first, second = execute_job(job), execute_job(job)
    assert first.status == ChaseStatus.ABORTED_BY_MONITOR.value
    assert first.cacheable
    assert first.facts == second.facts


def test_execute_job_converts_exceptions_to_error_results():
    job = make_job(strategy="not_a_strategy")
    result = execute_job(job)
    assert result.status == STATUS_ERROR
    assert not result.ok
    assert not result.cacheable
    assert "not_a_strategy" in result.failure_reason


def test_progress_events_stream_through_the_observer_hook():
    events = []
    job = make_job(constraints=DIVERGENT, instance="S(a).", max_steps=20)
    execute_job(job, on_event=events.append, progress_every=5)
    kinds = {event.kind for event in events}
    assert kinds == {"progress"}
    assert [event.detail["steps"] for event in events] == [5, 10, 15, 20]


def test_auto_strategy_turns_example4_into_a_terminating_run():
    """The paper's separating example, operationalized: round-robin
    diverges on Example 4, the auto-resolved stratum order terminates."""
    from repro.lang.parser import render_constraints
    from repro.workloads.paper import example4_instance
    spec = {"constraints": render_constraints(example4()),
            "instance": "\n".join(sorted(f"{f}." for f in
                                         example4_instance())),
            "max_steps": 2000}
    diverging = ChaseJob.from_dict(dict(spec, strategy="round_robin"))
    auto = ChaseJob.from_dict(dict(spec, strategy="auto"))
    assert (execute_job(diverging).status
            == ChaseStatus.EXCEEDED_BUDGET.value)
    assert execute_job(auto).status == ChaseStatus.TERMINATED.value
