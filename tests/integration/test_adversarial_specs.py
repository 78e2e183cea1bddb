"""Malformed and adversarial job specs against every service entry.

The contract under test: whatever a client throws at ``repro serve``,
``repro query``, ``repro batch`` or the spec parsers directly, the
answer is a *structured* error -- a :class:`WireError`/``ReproError``
from parsing, an ``{"status": "error", ...}`` payload from the serve
loop, exit code 2 from the CLI -- and **never a traceback**, neither
raised nor smuggled into a ``failure_reason`` string.
"""

import io
import json

import pytest

from repro.cli import main
from repro.service.jobs import ChaseJob, job_from_dict
from repro.service.serialize import WireError

GOOD = {"constraints": "S(x) -> E(x, y)", "instance": "S(a)."}


def serve_lines(monkeypatch, capsys, lines):
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    assert main(["serve"]) == 0
    return [json.loads(line)
            for line in capsys.readouterr().out.splitlines() if line]


# ----------------------------------------------------------------------
# spec parsing: every malformed shape raises WireError, not a crash
# ----------------------------------------------------------------------
@pytest.mark.parametrize("payload", [
    "not a dict", 42, ["constraints"], None, True,
])
def test_non_dict_specs_raise_wire_error(payload):
    with pytest.raises(WireError, match="must be an object"):
        job_from_dict(payload)


def test_unknown_job_kind_raises_wire_error():
    with pytest.raises(WireError, match="unknown job kind"):
        job_from_dict({**GOOD, "kind": "chasse"})


@pytest.mark.parametrize("knob, bad", [
    ("max_steps", -1),
    ("max_facts", -10),
    ("wall_clock", -0.5),
    ("cycle_limit", -3),
    ("max_k", -1),
    ("max_steps", "lots"),
    ("wall_clock", "fast"),
    ("max_facts", True),
])
def test_bad_budgets_raise_wire_error_on_chase_jobs(knob, bad):
    with pytest.raises(WireError, match=knob):
        ChaseJob.from_dict({**GOOD, knob: bad})


@pytest.mark.parametrize("knob, bad", [
    ("max_steps", -1),
    ("depth_limit", -2),
    ("max_k", -1),
    ("optimize", "yes"),
])
def test_bad_budgets_raise_wire_error_on_query_jobs(knob, bad):
    with pytest.raises(WireError, match=knob):
        job_from_dict({**GOOD, "query": "q(x) <- S(x)", knob: bad})


def test_valid_budgets_still_parse():
    job = ChaseJob.from_dict({**GOOD, "max_steps": 5, "max_facts": 0,
                              "wall_clock": 0.0, "max_k": 0})
    assert (job.max_steps, job.max_facts, job.wall_clock) == (5, 0, 0.0)


def test_duplicate_relation_arities_are_a_structured_error():
    # R used with arity 1 and 2: the schema layer must reject it
    # as a ReproError (which the CLI renders, exit 2), not crash.
    from repro.lang.errors import ReproError
    with pytest.raises(ReproError):
        job_from_dict({"constraints": "R(x) -> R(x, y)",
                       "instance": "R(a)."})


# ----------------------------------------------------------------------
# repro serve: one structured error payload per bad line, loop survives
# ----------------------------------------------------------------------
def test_serve_survives_adversarial_requests(monkeypatch, capsys):
    replies = serve_lines(monkeypatch, capsys, [
        "not json at all",
        json.dumps(["a", "list"]),
        json.dumps({**GOOD, "kind": "bogus"}),
        json.dumps({**GOOD, "max_steps": -5}),
        json.dumps({**GOOD, "query": 17}),
        json.dumps({**GOOD, "name": "ok"}),          # sanity: still serves
        "quit",
    ])
    assert len(replies) == 6
    for reply in replies[:5]:
        assert reply["status"] == "error"
        assert "Traceback" not in reply["failure_reason"]
    assert replies[5]["status"] == "terminated"


def test_serve_negative_budget_error_names_the_knob(monkeypatch, capsys):
    replies = serve_lines(monkeypatch, capsys, [
        json.dumps({**GOOD, "max_facts": -1}), "quit"])
    assert replies[0]["status"] == "error"
    assert "max_facts" in replies[0]["failure_reason"]


# ----------------------------------------------------------------------
# repro batch / repro query: bad spec files exit 2 with a clean error
# ----------------------------------------------------------------------
def write_spec(tmp_path, payload, name="job.json"):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str)
                    else json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("payload", [
    "{invalid json",
    json.dumps("just a string"),
    json.dumps({"constraints": "S(x) -> E(x, y)", "instance": "S(a).",
                "kind": "nope"}),
    json.dumps({"constraints": "S(x) -> E(x, y)", "instance": "S(a).",
                "max_steps": -2}),
])
def test_batch_rejects_bad_spec_files_cleanly(tmp_path, capsys, payload):
    path = write_spec(tmp_path, payload)
    assert main(["batch", path, "--workers", "1"]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_query_rejects_chase_spec_without_query_field(tmp_path, capsys):
    path = write_spec(tmp_path, GOOD)
    assert main(["query", path]) == 2
    assert "no 'query' field" in capsys.readouterr().err


def test_query_rejects_negative_depth_limit_spec(tmp_path, capsys):
    path = write_spec(tmp_path, {**GOOD, "query": "q(x) <- S(x)",
                                 "depth_limit": -1})
    assert main(["query", path]) == 2
    captured = capsys.readouterr()
    assert "depth_limit" in captured.err
    assert "Traceback" not in captured.err


def test_executed_adversarial_budget_never_leaks_a_traceback(capsys):
    # Budgets that pass validation but are operationally extreme must
    # come back as chase statuses, not error tracebacks.
    from repro.service.jobs import execute_any
    job = ChaseJob.from_dict({**GOOD, "max_steps": 0})
    result = execute_any(job)
    assert result.status == "exceeded_budget"
    job = ChaseJob.from_dict({**GOOD, "max_facts": 0})
    result = execute_any(job)
    assert result.status == "exceeded_budget"
    assert "Traceback" not in (result.failure_reason or "")
